#pragma once

/// \file aggregator.hpp
/// The per-cell reducer lives in sim/aggregator.hpp (`sim::Run` feeds it);
/// these names keep the sweep layer's spelling.

#include "sim/aggregator.hpp"

namespace wakeup::exp {

using sim::Aggregator;
using sim::CellStats;

}  // namespace wakeup::exp
