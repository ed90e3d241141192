# CLI ≡ ABI referee: drive gather_cli with every spec-bearing flag and
# byte-compare its output against goldens in tests/data/, then check the
# spec-text rules the CLI shares with the C ABI. The sweep CSV golden is
# also what tests/api_test.cpp expects from gather_sweep_csv for the
# same grid, so the CLI and the C ABI are pinned to one answer.
#
#   cmake -DCLI=<gather_cli> -DDATA=<tests/data> -DWORK=<scratch dir>
#         -P tests/cli_parity.cmake
#
# The goldens are fixed: a difference is a regression in the CLI's
# flag handling, never a reason to regenerate them.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/traces")

# Run gather_cli in WORK (relative output paths land there and the
# single-run report echoes them) and require `expected_rc`.
function(run_cli expected_rc stdout_file)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_FILE "${WORK}/${stdout_file}"
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected_rc}")
    message(FATAL_ERROR "gather_cli ${ARGN}\nexited ${rc}, want "
      "${expected_rc}\nstderr:\n${err}")
  endif()
endfunction()

function(expect_same expected actual)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${expected}" "${WORK}/${actual}" RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${WORK}/${actual} differs from ${expected}")
  endif()
endfunction()

# Every sweep flag, plus the base-point run flags (the axes override
# --graph/--n/--k/--placement/--algorithm/--scheduler/--seed; --record is
# single-run only and is dropped by the sweep policy).
run_cli(0 sweep.stdout --sweep
  --graph=star --n=20 --k=5 --params=
  --families=ring,torus,grid --sizes=9,12 --k-rules=n/4+1,3
  --placement=dispersed --placements=pair
  --placement-params=distance=3 --pair-distance=2
  --algorithm=undispersed --algorithms=faster,uxs
  --labeling=equal-length --uxs=covering
  --scheduler=crash-fault --schedulers=semi-synchronous
  --scheduler-params=fairness=3
  --known-distance=2 --delta-aware
  --seed=5 --seeds=1,18446744073709551
  --hard-cap=5000000 --decide-threads=2 --record=ignored.trace
  --threads=2 --steal-chunk=1 --cache --cache-stats
  --trace-dir=traces --format=csv --out=sweep.csv)
expect_same(${DATA}/cli_sweep_parity.csv sweep.csv)

# Every single-run flag. --graph-file overrides --graph and the path in
# --params; --pair-distance overrides the distance in --placement-params.
run_cli(0 run.stdout
  --graph=torus "--graph-file=${DATA}/cli_petersen.graph"
  --params=path=unused.graph --n=99 --k=3
  --algorithm=faster --placement=pair
  --placement-params=distance=1 --pair-distance=2
  --labeling=sequential --uxs=covering
  --scheduler=crash-fault --scheduler-params=crashes=0,window=8
  --known-distance=2 --delta-aware --seed=7
  --hard-cap=5000000 --decide-threads=2
  --record=run.trace --timeline --dot=run.dot --save-graph=run.graph)
expect_same(${DATA}/cli_run_every_flag.txt run.stdout)

# Spec-text rules the CLI inherits from the parser: list items are
# trimmed, seeds span the full uint64 range, and out-of-range integers
# or a line break in a value (which would smuggle in a second key) are
# usage errors (exit 2), as is a sweep-only flag without --sweep.
run_cli(0 plain.stdout --sweep --families=ring,torus --sizes=9,12 --k=3
  --seeds=1 --out=plain.csv)
run_cli(0 spaced.stdout --sweep "--families=ring, torus" "--sizes= 9, 12"
  --k=3 --seeds=1 --out=spaced.csv)
expect_same(${WORK}/plain.csv spaced.csv)
run_cli(0 seed.stdout --seed=18446744073709551615)
run_cli(2 range.stdout --known-distance=4294967298)
run_cli(2 newline.stdout "--labeling=random\nseed=1")
run_cli(2 carriage.stdout "--params=\rn=5")
run_cli(2 sweep_only.stdout --seeds=1,2)

file(REMOVE_RECURSE "${WORK}")
