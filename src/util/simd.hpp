#pragma once

/// \file simd.hpp
/// The name of the word kernels the batch engine runs, for run records.
///
/// The batch engine (sim/batch_engine.cpp) folds one 64-slot word per
/// station per round with plain std::uint64_t operations, so there is one
/// kernel set and it is portable.  This header is kept only because the
/// frozen benchmark (perfbench/sweep.cpp) stamps the name into its
/// run records; nothing in the library calls it.

namespace wakeup::util::simd {

/// Always "scalar".
[[nodiscard]] inline const char* active_name() noexcept { return "scalar"; }

}  // namespace wakeup::util::simd
