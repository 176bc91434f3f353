// Machine-speed calibration for the host-time metrics (calibrate.cpp).
#pragma once

namespace perf {

// Host seconds a fixed simulator-like workload (event heap, string-keyed
// map, memcpy) takes right now; measures how fast the shared machine is.
double calibrate_s();

}  // namespace perf
