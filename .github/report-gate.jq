# The one gate every gridsim report is held to, whatever the mode
# (DESIGN.md §17): the schema, no oracle violations, every gate true —
# in the document and in every child under `runs`.
#   jq -e -f .github/report-gate.jq BENCH_chaos.json
def ok:
  .schema == "gqosm.report/v1"
  and .oracle.violations == 0
  and (.oracle.gates | all)
  and ((.runs // {}) | all(ok));
ok
