// The engine's numeric backend, named for the artifacts that record it.
//
// Every kernel is plain scalar double arithmetic (DESIGN.md §12); bench
// artifacts carry this name so a result stays attributable to the build
// that produced it.
#pragma once

namespace dimmer::util::simd {

inline const char* backend_name() { return "scalar"; }

}  // namespace dimmer::util::simd
