# Drops the timing columns of rendered experiment tables, so the rest can be
# pinned: every column whose header names "ms", and the rule line under each
# header, whose width follows the dropped columns. Cells are separated by two
# or more spaces; run with `awk -F '  +' -f drop_ms_columns.awk`.
/^== .* ==$/ { print; header = 1; next }
/^-+$/ { next }
header {
    split("", ms)
    for (i = 1; i <= NF; i++) if ($i ~ /(^| )ms( |$)/) ms[i] = 1
    header = 0
}
{
    out = ""
    for (i = 1; i <= NF; i++) if (!(i in ms)) out = out (out == "" ? "" : "  ") $i
    print out
}
