# iqbench argument validation. Every rejected value must make iqbench exit 2
# with "bad argument" and the usage on stderr while it parses its flags,
# before it loads a table or starts a thread; --help must print the usage to
# stdout and exit 0.
#
#   cmake -DIQBENCH=path/to/iqbench -P iqbench_args_test.cmake
set(rejected
    --threads=abc --threads=0 --threads=-1 --threads=4x
    --seconds=0 --seconds=-2 --seconds=nan --seconds=inf
    --mix=-1 --mix=100.5 --audit-rate=1.5 --multikey-rate=-0.1
    --zipf=1 --zipf=-0.5 --timeout-ms=0 --timeout-ms=5ms --rmw=delta)
foreach(arg IN LISTS rejected)
  # The bad flag comes first, so the endpoint after it is never contacted.
  execute_process(COMMAND ${IQBENCH} ${arg} --connect=127.0.0.1:9
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 10)
  string(FIND "${err}" "bad argument '${arg}'" bad_at)
  string(FIND "${err}" "usage: iqbench" usage_at)
  if(NOT rc EQUAL 2 OR bad_at EQUAL -1 OR usage_at EQUAL -1)
    message(FATAL_ERROR "iqbench ${arg}: exit ${rc}, stderr:\n${err}")
  endif()
endforeach()

execute_process(COMMAND ${IQBENCH} --help
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 10)
string(FIND "${out}" "usage: iqbench" usage_at)
if(NOT rc EQUAL 0 OR usage_at EQUAL -1)
  message(FATAL_ERROR "iqbench --help: exit ${rc}, stdout:\n${out}")
endif()
