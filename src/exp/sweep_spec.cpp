#include "exp/sweep_spec.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "protocols/registry.hpp"
#include "util/rng.hpp"

namespace wakeup::exp {

mac::patterns::Kind generator_kind(PatternKind kind) {
  switch (kind) {
    case PatternKind::kSimultaneous:
      return mac::patterns::Kind::kSimultaneous;
    case PatternKind::kUniform:
      return mac::patterns::Kind::kUniform;
    case PatternKind::kBatched:
      return mac::patterns::Kind::kBatched;
    case PatternKind::kStaggered:
      return mac::patterns::Kind::kStaggered;
    case PatternKind::kPoisson:
      return mac::patterns::Kind::kPoisson;
    case PatternKind::kExponentialSpread:
      return mac::patterns::Kind::kExponentialSpread;
    case PatternKind::kAdversarial:
      break;
  }
  throw std::logic_error("adversarial pattern has no mac::patterns::Kind");
}

namespace {

std::string joined_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

std::string pattern_name(PatternKind kind) {
  if (kind == PatternKind::kAdversarial) return "adversarial";
  return mac::patterns::kind_name(generator_kind(kind));
}

PatternKind parse_pattern(const std::string& label) {
  for (const PatternKind kind : all_pattern_kinds()) {
    if (pattern_name(kind) == label) return kind;
  }
  std::string names;
  for (const PatternKind kind : all_pattern_kinds()) {
    if (!names.empty()) names += ", ";
    names += pattern_name(kind);
  }
  throw std::invalid_argument("unknown wake pattern '" + label + "' (one of: " + names + ")");
}

const std::vector<PatternKind>& all_pattern_kinds() {
  static const std::vector<PatternKind> kinds = {
      PatternKind::kSimultaneous, PatternKind::kUniform,
      PatternKind::kBatched,      PatternKind::kStaggered,
      PatternKind::kPoisson,      PatternKind::kExponentialSpread,
      PatternKind::kAdversarial,
  };
  return kinds;
}

const std::vector<std::string>& mc_strategy_names() {
  static const std::vector<std::string> names = {"striped_rr", "group_wag", "random_rpd"};
  return names;
}

bool is_mc_strategy(const std::string& name) {
  const auto& names = mc_strategy_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string engine_name(sim::Engine engine) {
  switch (engine) {
    case sim::Engine::kAuto:
      return "auto";
    case sim::Engine::kInterpreter:
      return "interpret";
    case sim::Engine::kBatch:
      return "batch";
  }
  return "?";
}

sim::Engine parse_engine(const std::string& label) {
  if (label == "auto") return sim::Engine::kAuto;
  if (label == "interpret") return sim::Engine::kInterpreter;
  if (label == "batch") return sim::Engine::kBatch;
  throw std::invalid_argument("unknown engine '" + label + "' (one of: auto, interpret, batch)");
}

std::uint64_t tag_hash(const std::string& tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string cell_tag_text(const std::string& protocol, std::uint32_t n, std::uint32_t k,
                          std::uint32_t channels, sim::Engine engine, PatternKind pattern,
                          std::uint64_t trials, mac::Slot s, const std::string& arrival,
                          mac::Slot horizon, const std::string& impairment) {
  std::ostringstream tag;
  tag << "protocol=" << protocol << ",n=" << n << ",k=" << k << ",c=" << channels
      << ",pattern=" << pattern_name(pattern) << ",engine=" << engine_name(engine)
      << ",trials=" << trials << ",s=" << s;
  if (!arrival.empty()) tag << ",arrival=" << arrival << ",horizon=" << horizon;
  if (!impairment.empty()) tag << ",impairment=" << impairment;
  return tag.str();
}

std::vector<Cell> expand(const SweepSpec& spec) {
  if (spec.protocols.empty() || spec.ns.empty() || spec.ks.empty() || spec.channels.empty() ||
      spec.engines.empty() || spec.patterns.empty()) {
    throw std::invalid_argument("SweepSpec: every axis needs at least one value");
  }
  if (spec.trials == 0) throw std::invalid_argument("SweepSpec: trials must be >= 1");

  const bool dynamic = !spec.arrivals.empty();
  if (dynamic) {
    if (spec.horizon <= 0) {
      throw std::invalid_argument("SweepSpec: dynamic grids need horizon >= 1");
    }
    // The arrival axis replaces the pattern axis — a grid asking for both
    // is ambiguous, so reject it instead of silently ignoring one.
    if (spec.patterns.size() != 1 || spec.patterns.front() != PatternKind::kUniform) {
      throw std::invalid_argument(
          "SweepSpec: the arrival axis replaces the pattern axis — leave patterns at its "
          "default for dynamic grids");
    }
    for (const std::uint32_t c : spec.channels) {
      if (c != 1) {
        throw std::invalid_argument(
            "SweepSpec: dynamic traffic is single-channel — drop channels > 1 from the grid");
      }
    }
    for (const mac::ArrivalSpec& arrival : spec.arrivals) {
      if (arrival.kind == mac::ArrivalKind::kReplay) {
        throw std::invalid_argument(
            "SweepSpec: replay traffic is loaded from a file, not swept — use the generator "
            "kinds (poisson, bursty, pareto) on the arrival axis");
      }
    }
    for (const std::string& name : spec.protocols) {
      if (is_mc_strategy(name)) {
        throw std::invalid_argument(
            "mc strategy '" + name + "' cannot run under dynamic traffic (single-channel)");
      }
      if (!proto::is_protocol_name(name)) continue;  // reported below with the full list
      const proto::ProtocolCapabilities caps = proto::protocol_capabilities(name);
      if (!caps.dynamic) {
        // Name the axis values forcing dynamic mode, not just the axis: the
        // fix is either dropping this protocol or those values.
        std::string values;
        for (const mac::ArrivalSpec& arrival : spec.arrivals) {
          if (!values.empty()) values += ", ";
          values += arrival.name();
        }
        throw std::invalid_argument(
            "protocol '" + name +
            "' is static-only (it needs a known start slot or collision detection) and "
            "cannot re-contend per packet under arrival axis value(s) [" + values +
            "] — drop the protocol or the arrival values (see the `dynamic` column of "
            "`wakeup_cli list`)");
      }
    }
  }

  // The impairment axis: parse and validate every value before expansion.
  std::vector<mac::ImpairmentSpec> impairments;
  if (spec.impairments.empty()) {
    impairments.emplace_back();  // one clean channel
  } else {
    for (const std::string& text : spec.impairments) {
      impairments.push_back(mac::ImpairmentSpec::parse(text));  // throws with the grammar
    }
  }
  const bool grid_is_mc =
      std::any_of(spec.protocols.begin(), spec.protocols.end(), is_mc_strategy) ||
      std::any_of(spec.channels.begin(), spec.channels.end(),
                  [](std::uint32_t c) { return c > 1; });
  for (const mac::ImpairmentSpec& imp : impairments) {
    if (!dynamic && imp.has_faults()) {
      throw std::invalid_argument(
          "impairment axis value '" + imp.name() +
          "' has crash/byzantine fault clauses, which only the dynamic layer models — add "
          "an arrival axis or drop that value");
    }
    const bool adversarial =
        imp.has_jam() && imp.jam_sched == mac::JamSchedule::kAdversarial;
    if (adversarial && dynamic) {
      throw std::invalid_argument(
          "impairment axis value '" + imp.name() +
          "' asks for the adversarial jam search, which runs on the static single-channel "
          "stack — use a fixed jam schedule (front/spread/random) on dynamic grids");
    }
    if (adversarial && grid_is_mc) {
      throw std::invalid_argument(
          "impairment axis value '" + imp.name() +
          "' asks for the adversarial jam search, which is single-channel — drop "
          "channels > 1 and the mc strategies, or pick a fixed jam schedule");
    }
  }

  // Validate names and capabilities before touching any cell, so a typo
  // fails in milliseconds instead of mid-overnight-sweep.
  for (const std::string& name : spec.protocols) {
    if (is_mc_strategy(name)) continue;
    if (!proto::is_protocol_name(name)) {
      throw std::invalid_argument(
          "unknown protocol '" + name + "' — registry protocols: " +
          joined_names(proto::protocol_names()) +
          "; multichannel strategies: " + joined_names(mc_strategy_names()) +
          " (see `wakeup_cli list`)");
    }
    const proto::ProtocolCapabilities caps = proto::protocol_capabilities(name);
    const bool wants_batch =
        std::find(spec.engines.begin(), spec.engines.end(), sim::Engine::kBatch) !=
        spec.engines.end();
    if (wants_batch && !caps.oblivious) {
      throw std::invalid_argument(
          "protocol '" + name +
          "' is not oblivious (no word-parallel schedule) — engine=batch cannot serve it; "
          "use engine=auto or engine=interpret (see `wakeup_cli list` capability columns)");
    }
    if (caps.needs_collision_detection) {
      throw std::invalid_argument(
          "protocol '" + name +
          "' needs collision-detection feedback, which sweep cells do not deliver");
    }
  }
  for (const std::uint32_t c : spec.channels) {
    if (c == 0) throw std::invalid_argument("SweepSpec: channels must be >= 1");
  }
  for (const std::uint32_t n : spec.ns) {
    if (n == 0) throw std::invalid_argument("SweepSpec: n must be >= 1");
  }
  for (const std::uint32_t k : spec.ks) {
    if (k == 0) throw std::invalid_argument("SweepSpec: k must be >= 1");
  }
  for (const std::string& name : spec.protocols) {
    if (!is_mc_strategy(name)) continue;
    if (name == "random_rpd") {
      // Randomized channel hopper: fine under auto/interpret, not batch.
      if (std::find(spec.engines.begin(), spec.engines.end(), sim::Engine::kBatch) !=
          spec.engines.end()) {
        throw std::invalid_argument(
            "mc strategy 'random_rpd' is randomized — engine=batch cannot serve it");
      }
    }
  }

  const bool wants_adversarial =
      std::find(spec.patterns.begin(), spec.patterns.end(), PatternKind::kAdversarial) !=
      spec.patterns.end();
  if (wants_adversarial) {
    const bool any_mc =
        std::any_of(spec.protocols.begin(), spec.protocols.end(), is_mc_strategy) ||
        std::any_of(spec.channels.begin(), spec.channels.end(),
                    [](std::uint32_t c) { return c > 1; });
    if (any_mc) {
      throw std::invalid_argument(
          "the adversarial pattern search is single-channel — drop channels > 1 and the "
          "mc strategies from the grid, or pick a generator pattern");
    }
  }

  std::vector<Cell> cells;
  if (dynamic) {
    // Dynamic grids: arrival-major in place of the pattern loop (channels
    // is validated to {1} above).
    for (const std::string& protocol : spec.protocols) {
      for (const std::uint32_t n : spec.ns) {
        for (const std::uint32_t k : spec.ks) {
          if (k > n) continue;
          for (const mac::ArrivalSpec& arrival : spec.arrivals) {
            for (const sim::Engine engine : spec.engines) {
              for (const mac::ImpairmentSpec& imp : impairments) {
                Cell cell;
                cell.protocol = protocol;
                cell.n = n;
                cell.k = k;
                cell.channels = 1;
                cell.engine = engine;
                cell.trials = spec.trials;
                cell.s = spec.s;
                cell.dynamic = true;
                cell.arrival = arrival;
                cell.horizon = spec.horizon;
                cell.impairment = imp;
                cell.index = cells.size();
                cell.tag = cell_tag_text(protocol, n, k, 1, engine, cell.pattern, spec.trials,
                                         spec.s, arrival.name(), spec.horizon,
                                         imp.clean() ? "" : imp.name());
                cell.tag_hash = tag_hash(cell.tag);
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
    return cells;
  }
  for (const std::string& protocol : spec.protocols) {
    for (const std::uint32_t n : spec.ns) {
      for (const std::uint32_t k : spec.ks) {
        if (k > n) continue;  // infeasible corner of a rectangular grid
        for (const std::uint32_t c : spec.channels) {
          for (const PatternKind pattern : spec.patterns) {
            for (const sim::Engine engine : spec.engines) {
              for (const mac::ImpairmentSpec& imp : impairments) {
                Cell cell;
                cell.protocol = protocol;
                cell.n = n;
                cell.k = k;
                cell.channels = c;
                cell.engine = engine;
                cell.pattern = pattern;
                cell.trials = spec.trials;
                cell.s = spec.s;
                cell.impairment = imp;
                cell.index = cells.size();
                cell.tag = cell_tag_text(protocol, n, k, c, engine, pattern, spec.trials,
                                         spec.s, "", 0, imp.clean() ? "" : imp.name());
                cell.tag_hash = tag_hash(cell.tag);
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::uint64_t grid_fingerprint(const std::vector<Cell>& cells, std::uint64_t base_seed) {
  std::uint64_t h = util::hash_words({base_seed, cells.size()});
  for (const Cell& cell : cells) h = util::hash_combine(h, cell.tag_hash);
  return h;
}

std::vector<mac::ArrivalSpec> parse_arrival_axis(const std::string& text) {
  std::vector<mac::ArrivalSpec> specs;
  for (const std::string& item : split_list(text)) {
    mac::ArrivalSpec spec = mac::ArrivalSpec::parse(item);
    if (spec.kind == mac::ArrivalKind::kReplay) {
      throw std::invalid_argument(
          "arrival axis: 'replay' is loaded from a file, not swept — use poisson, bursty, "
          "or pareto");
    }
    specs.push_back(spec);
  }
  if (specs.empty()) throw std::invalid_argument("empty arrival axis '" + text + "'");
  return specs;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    const std::size_t lo = std::min(text.find_first_not_of(' ', begin), comma);
    std::size_t hi = comma;
    while (hi > lo && text[hi - 1] == ' ') --hi;
    std::string item = text.substr(lo, hi - lo);
    if (item.empty() || item.find(' ') != std::string::npos) {
      throw std::invalid_argument("bad list item '" + item + "' in '" + text +
                                  "' (items are comma-separated, non-empty, without spaces)");
    }
    items.push_back(std::move(item));
    if (comma == text.size()) return items;
    begin = comma + 1;
  }
}

namespace {

std::uint32_t parse_value_u32(const std::string& item) {
  std::size_t caret = item.find('^');
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    if (caret != std::string::npos) {
      if (item.substr(0, caret) != "2") {
        throw std::invalid_argument("only base-2 powers are supported");
      }
      const unsigned long long e = std::stoull(item.substr(caret + 1), &pos);
      if (pos != item.size() - caret - 1 || e > 31) {
        throw std::invalid_argument("exponent out of range");
      }
      value = 1ULL << e;
    } else {
      value = std::stoull(item, &pos);
      if (pos != item.size()) throw std::invalid_argument("trailing characters");
    }
  } catch (const std::exception&) {
    throw std::invalid_argument("bad axis value '" + item + "' (use N, 2^E, or A..B)");
  }
  if (value == 0 || value > 0xffffffffULL) {
    throw std::invalid_argument("axis value '" + item + "' out of range");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

std::vector<std::uint32_t> parse_axis_u32(const std::string& text) {
  std::vector<std::uint32_t> values;
  for (const std::string& item : split_list(text)) {
    const std::size_t dots = item.find("..");
    if (dots == std::string::npos) {
      values.push_back(parse_value_u32(item));
      continue;
    }
    const std::uint32_t lo = parse_value_u32(item.substr(0, dots));
    const std::uint32_t hi = parse_value_u32(item.substr(dots + 2));
    if (lo > hi) {
      throw std::invalid_argument("axis range '" + item + "' is empty (lo > hi)");
    }
    for (std::uint64_t v = lo; v <= hi; v *= 2) {
      values.push_back(static_cast<std::uint32_t>(v));
    }
  }
  if (values.empty()) throw std::invalid_argument("empty axis '" + text + "'");
  return values;
}

}  // namespace wakeup::exp
