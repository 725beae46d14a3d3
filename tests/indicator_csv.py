"""Reader of the ``indicators.csv`` files that ``write_indicator_csv`` writes:
one dict per row, ``family`` as text, an empty field as None and every other
field as a float."""


def read_indicator_csv(path) -> list[dict]:
    rows = []
    with open(path) as f:
        lines = [ln.strip() for ln in f if not ln.startswith("#")]
    header = lines[0].split(",")
    for ln in lines[1:]:
        if not ln:
            continue
        row = {}
        for key, val in zip(header, ln.split(",")):
            if key == "family":
                row[key] = val
            elif val == "":
                row[key] = None
            else:
                row[key] = float(val)
        rows.append(row)
    return rows
