// Internal to core: the one mid-run failure path of both engine loops, the
// generic event loop (engine.cpp) and the fast-path kernel
// (fast_forward.cpp), so both report a misbehaving policy alike.
#pragma once

#include <string>

namespace tempofair::detail {

/// Throws std::runtime_error("tempofair::simulate: " + msg).
[[noreturn]] void engine_fail(const std::string& msg);

}  // namespace tempofair::detail
