#ifndef TRANSFW_SIM_OBS_SWITCH_HPP
#define TRANSFW_SIM_OBS_SWITCH_HPP

// Observability master switch. The build sets it (CMake option
// TRANSFW_OBS=OFF passes TRANSFW_OBS=0, compiling the self-profiler and
// fabric telemetry out); this header holds the one default. Every file
// that tests the macro includes it, because an unset macro reads as 0
// in #if and would silently compile the instrumentation out.
#ifndef TRANSFW_OBS
#define TRANSFW_OBS 1
#endif

#endif // TRANSFW_SIM_OBS_SWITCH_HPP
