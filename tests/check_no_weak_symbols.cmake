# Fails when an object file defines a weak (nm type W or V) or unique (u)
# symbol. Such a symbol is merged across translation units at link time,
# so an instance compiled with extra target flags (the -mavx2 and
# -mavx512f kernels) could replace the baseline copy every other unit
# calls.
#
# Usage: cmake -DNM=<nm> -DOBJECTS=<object;...> -P check_no_weak_symbols.cmake

foreach(object IN LISTS OBJECTS)
  execute_process(COMMAND "${NM}" "${object}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "nm failed on ${object}")
  endif()
  string(REGEX MATCHALL "[^\n]* [WVu] [^\n]*" merged "${symbols}")
  if(merged)
    string(REPLACE ";" "\n" merged "${merged}")
    message(FATAL_ERROR "${object} defines merged symbols:\n${merged}")
  endif()
endforeach()
