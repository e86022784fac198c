// Workload churn: dyn::DynamicCds engines take seeded streams of revive /
// erase / move events, one stream on each of kLanes fields. Every stream
// is replayed on identical engines, copies of the one built in set-up,
// and each event keeps its fastest time; the percentiles pool the events
// of all lanes.

#include <algorithm>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "core/local_repair.hpp"
#include "dyn/dynamic_cds.hpp"
#include "graph/delta_graph.hpp"
#include "udg/grid_index.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kEvents = 4000;
constexpr std::size_t kCheckEvery = 1000;
constexpr double kCrash = 0.1;  ///< erase probability of a live node
constexpr double kStep = 0.5;   ///< largest move per axis
constexpr std::size_t kMinPasses = 1;
/// Independent (field, stream) pairs per run, kEvents events each. The
/// tail of the event times depends on the field and on the stream;
/// pooling five short streams narrows its spread across seeds more than
/// one long stream does. Lane 0 uses the run's own field.
constexpr std::size_t kLanes = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t lane_seed(std::uint64_t seed, std::size_t lane) {
  return seed + lane * 0x9E3779B97F4A7C15ULL;
}

enum class Kind : std::uint8_t { kMove, kErase, kRevive };
struct Event {
  Kind kind = Kind::kMove;
  NodeId v = 0;
  geom::Vec2 p;
};

/// The alive set and positions, followed by the benchmark itself.
struct Tracker {
  std::vector<geom::Vec2> pos;
  std::vector<std::uint8_t> alive;
  std::size_t alive_count = 0;

  explicit Tracker(const std::vector<geom::Vec2>& points)
      : pos(points), alive(points.size(), 1), alive_count(points.size()) {}
  void apply(const Event& e) {
    if (e.kind == Kind::kErase) {
      alive[e.v] = 0;
      --alive_count;
      return;
    }
    if (e.kind == Kind::kRevive) {
      alive[e.v] = 1;
      ++alive_count;
    }
    pos[e.v] = e.p;
  }
};

/// Same make-up as `mcds_cli dynamic`: revive a dead node anywhere in
/// the square, erase a live one with probability kCrash, else move it.
std::vector<Event> make_stream(const Field& field, std::uint64_t seed) {
  Rand rng(seed ^ 0xC3A5C85C97CB3127ULL);
  Tracker t(field.points);
  const auto clamp = [&](double x) { return std::clamp(x, 0.0, field.side); };
  std::vector<Event> out(kEvents);
  for (auto& e : out) {
    e.v = static_cast<NodeId>(rng.below(t.pos.size()));
    if (!t.alive[e.v]) {
      e.kind = Kind::kRevive;
      const double x = rng.uniform(0.0, field.side);
      e.p = {x, rng.uniform(0.0, field.side)};
    } else if (rng.uniform01() < kCrash) {
      e.kind = Kind::kErase;
    } else {
      e.kind = Kind::kMove;
      const double x = clamp(t.pos[e.v].x + rng.uniform(-kStep, kStep));
      e.p = {x, clamp(t.pos[e.v].y + rng.uniform(-kStep, kStep))};
    }
    t.apply(e);
  }
  return out;
}

std::string check_backbone(const Tracker& t, double side, std::size_t alive,
                           std::span<const NodeId> cds,
                           std::span<const NodeId> mis) {
  if (alive != t.alive_count) return "engine alive count differs from stream";
  const RefGraph ref = reference_udg(t.pos, side, t.alive);
  if (auto e = check_cds_forest(ref, t.alive, cds); !e.empty()) return e;
  if (auto e = check_mis(ref, t.alive, mis); !e.empty()) return e;
  if (cds.size() > 4 * mis.size() + 12) return "|B| exceeds 4|MIS|+12";
  return {};
}

bool checkpoint(std::size_t e) {
  return (e + 1) % kCheckEvery == 0 || e + 1 == kEvents;
}

/// Per event, the layer times of its fastest traced replay.
struct LayerTimes {
  std::vector<double> grid, overlay, backbone, policy, total;
  explicit LayerTimes(std::size_t n)
      : grid(n, kInf), overlay(n, kInf), backbone(n, kInf), policy(n, kInf),
        total(n, kInf) {}
};

struct Traced {
  double grid_ms = kInf, backbone_ms = kInf;
  std::vector<double> scope;
  std::size_t compactions = 0;
};

/// One field, its stream and the timings of that stream's events.
class Run {
 public:
  Run(std::uint64_t seed, Result& r)
      : r_(r), field_(draw_field(seed, kCachedNodes)),
        stream_(make_stream(field_, seed)), pristine_(field_.points),
        best_(kEvents, kInf), layers_(kEvents) {}

  /// Applies the stream to a copy of the set-up engine, timing every
  /// event. The first pass checks the backbone and MIS at every
  /// checkpoint against the benchmark's own topology and records them;
  /// every later pass must reach exactly the recorded sets there.
  void untraced_pass() {
    dyn::DynamicCds eng = pristine_;
    const bool first = checked_.empty();
    Tracker t(first ? field_.points : std::vector<geom::Vec2>{});
    std::size_t k = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
      const Event& e = stream_[i];
      const auto t0 = Clock::now();
      switch (e.kind) {
        case Kind::kMove: eng.move(e.v, e.p); break;
        case Kind::kErase: eng.erase(e.v); break;
        case Kind::kRevive: eng.revive(e.v, e.p); break;
      }
      best_[i] = std::min(best_[i], us_between(t0, Clock::now()));
      if (first) t.apply(e);
      if (!checkpoint(i)) continue;
      if (first) {
        verify(check_backbone(t, field_.side, eng.alive_count(), eng.cds(),
                              eng.mis()));
        checked_.push_back({eng.cds(), eng.mis()});
      } else if (eng.cds() != checked_[k].cds || eng.mis() != checked_[k].mis) {
        verify("backbone differs from the checked replay at event " +
               std::to_string(i));
      }
      ++k;
    }
    finish_pass(eng.cds());
  }

  /// Replays the stream through the objects DynamicCds::finish composes,
  /// in the same order, timing each layer.
  void traced_pass() {
    const dyn::DynParams params{};
    const auto t0 = Clock::now();
    udg::GridIndex grid(field_.points, params.radius);
    graph::DeltaGraph g(grid.build_graph(), params.compact_fraction,
                        params.compact_min_edits);
    const auto t1 = Clock::now();
    core::LocalBackbone bb(g, grid.alive_flags());
    const auto t2 = Clock::now();
    traced_.grid_ms = std::min(traced_.grid_ms, ms_between(t0, t1));
    traced_.backbone_ms = std::min(traced_.backbone_ms, ms_between(t1, t2));

    traced_.scope.assign(kEvents, 0.0);
    traced_.compactions = 0;
    graph::EdgeDelta delta;
    Tracker t(field_.points);
    for (std::size_t i = 0; i < kEvents; ++i) {
      const Event& e = stream_[i];
      core::NodeChange change = core::NodeChange::kNone;
      delta.clear();
      const auto a = Clock::now();
      switch (e.kind) {
        case Kind::kMove: grid.move(e.v, e.p, delta); break;
        case Kind::kErase:
          grid.erase(e.v, delta);
          change = core::NodeChange::kDied;
          break;
        case Kind::kRevive:
          grid.revive(e.v, e.p, delta);
          change = core::NodeChange::kBorn;
          break;
      }
      const auto b = Clock::now();
      g.apply(delta);
      const auto c = Clock::now();
      const core::RepairStats st =
          bb.on_event(g, grid.alive_flags(), e.v, change, delta);
      const auto d = Clock::now();
      if (bb.envelope_exceeded(params.envelope_factor, params.envelope_bias)) {
        bb.rebuild_connectors(g, grid.alive_flags());
      }
      if (g.compaction_due()) {
        g.compact();
        ++traced_.compactions;
      }
      const auto f = Clock::now();
      if (us_between(a, f) < layers_.total[i]) {
        layers_.grid[i] = us_between(a, b);
        layers_.overlay[i] = us_between(b, c);
        layers_.backbone[i] = us_between(c, d);
        layers_.policy[i] = us_between(d, f);
        layers_.total[i] = us_between(a, f);
      }
      traced_.scope[i] = static_cast<double>(st.scope);
      t.apply(e);
      if (checkpoint(i)) {
        verify(check_backbone(t, field_.side, grid.alive_count(), bb.cds(),
                              bb.mis()));
      }
    }
    finish_pass(bb.cds());
  }

  [[nodiscard]] const std::vector<double>& best() const { return best_; }
  [[nodiscard]] const LayerTimes& layers() const { return layers_; }
  [[nodiscard]] const Traced& traced() const { return traced_; }
  [[nodiscard]] std::size_t final_cds_size() const {
    return final_cds_.size();
  }

 private:
  /// A failed check fails the event after which it ran.
  void verify(const std::string& error) {
    if (!error.empty() && r_.failed++ == 0) {
      std::cerr << "churn: " << error << "\n";
    }
  }

  /// Every event of the pass is attempted; the final backbone must be
  /// the same on every pass, since every engine is built identically.
  void finish_pass(const std::vector<NodeId>& cds) {
    r_.attempted += kEvents;
    if (final_cds_.empty()) {
      final_cds_ = cds;
    } else if (cds != final_cds_) {
      if (r_.failed++ == 0) std::cerr << "churn: final backbone differs\n";
    }
  }

  Result& r_;
  Field field_;
  std::vector<Event> stream_;
  const dyn::DynamicCds pristine_;  ///< built in set-up, copied per pass
  struct Checked {
    std::vector<NodeId> cds, mis;
  };
  std::vector<Checked> checked_;  ///< per checkpoint, from the first pass
  std::vector<double> best_;
  LayerTimes layers_;
  Traced traced_;
  std::vector<NodeId> final_cds_;
};

/// The metrics over the events of all lanes.
void report(const Options& opt, const std::vector<std::unique_ptr<Run>>& lanes,
            double setup_s, Result& r) {
  const auto pool = [&](auto field) {
    std::vector<double> out;
    for (const auto& lane : lanes) {
      const std::vector<double>& v = field(*lane);
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  };
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const std::vector<double> best =
      pool([](const Run& l) -> const auto& { return l.best(); });
  const double stream_us = sum(best);
  if (!opt.trace) {
    std::vector<double> event_ms(best.size());
    std::transform(best.begin(), best.end(), event_ms.begin(),
                   [](double us) { return us / 1000.0; });
    double cds = 0.0;
    for (const auto& lane : lanes) {
      cds += static_cast<double>(lane->final_cds_size());
    }
    add_end_to_end(r, setup_s, std::move(event_ms),
                   cds / static_cast<double>(lanes.size()));
    return;
  }
  const auto q = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    return quantile(v, p);
  };
  const auto grid =
      pool([](const Run& l) -> const auto& { return l.layers().grid; });
  const auto overlay =
      pool([](const Run& l) -> const auto& { return l.layers().overlay; });
  const auto backbone =
      pool([](const Run& l) -> const auto& { return l.layers().backbone; });
  const auto policy =
      pool([](const Run& l) -> const auto& { return l.layers().policy; });
  const auto total =
      pool([](const Run& l) -> const auto& { return l.layers().total; });
  const auto scope =
      pool([](const Run& l) -> const auto& { return l.traced().scope; });
  double grid_ms = 0.0, backbone_ms = 0.0, compactions = 0.0;
  for (const auto& lane : lanes) {
    grid_ms += lane->traced().grid_ms;
    backbone_ms += lane->traced().backbone_ms;
    compactions += static_cast<double>(lane->traced().compactions);
  }
  r.add("dyn.setup.grid_ms", grid_ms, "ms");
  r.add("dyn.setup.backbone_ms", backbone_ms, "ms");
  r.add("udg.grid_event_p50_us", q(grid, 0.5), "us");
  r.add("graph.overlay_event_p50_us", q(overlay, 0.5), "us");
  r.add("core.backbone_event_p50_us", q(backbone, 0.5), "us");
  r.add("core.backbone_event_p99_us", q(backbone, 0.99), "us");
  r.add("core.repair_scope_total", sum(scope), "nodes");
  r.add("core.repair_scope_p99", q(scope, 0.99), "nodes");
  r.add("dyn.compactions", compactions, "count");
  const double layers = sum(grid) + sum(overlay) + sum(backbone) + sum(policy);
  r.add("trace.overhead_pct", 100.0 * (sum(total) / stream_us - 1.0), "%");
  r.add("trace.attribution_pct", 100.0 * layers / stream_us, "%");
}

}  // namespace

Result run_churn(const Options& opt) {
  Result r;
  std::vector<std::unique_ptr<Run>> lanes;
  for (std::size_t k = 0; k < kLanes; ++k) {
    lanes.push_back(std::make_unique<Run>(lane_seed(opt.seed, k), r));
  }
  const double setup_s = setup_seconds(opt);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  // A round replays every lane once and takes a few seconds; start one
  // only if it should end in time. Probes replay the traced path only.
  Clock::duration last{};
  for (std::size_t pass = 0;
       pass < kMinPasses || Clock::now() + last < deadline; ++pass) {
    const auto t0 = Clock::now();
    for (auto& lane : lanes) {
      if (!opt.probe) lane->untraced_pass();
      if (opt.trace) lane->traced_pass();
    }
    last = Clock::now() - t0;
  }
  report(opt, lanes, setup_s, r);
  return r;
}

}  // namespace perfbench
