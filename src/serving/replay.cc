#include "src/serving/replay.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace triclust {
namespace serving {

double ReplayStats::TweetsPerSecond() const {
  return wall_ms <= 0.0 ? 0.0 : total_tweets / (wall_ms / 1e3);
}

double ReplayStats::MeanAdvanceMs() const {
  if (days.empty()) return 0.0;
  double total = 0.0;
  for (const ReplayDayStats& d : days) total += d.advance_ms;
  return total / days.size();
}

double ReplayStats::MaxAdvanceMs() const {
  double max = 0.0;
  for (const ReplayDayStats& d : days) max = std::max(max, d.advance_ms);
  return max;
}

ReplayDriver::ReplayDriver(CampaignEngine* engine) : engine_(engine) {
  TRICLUST_CHECK(engine != nullptr);
}

void ReplayDriver::AddStream(size_t campaign, std::vector<Snapshot> days) {
  TRICLUST_CHECK_LT(campaign, engine_->num_campaigns());
  for (const Stream& s : streams_) {
    TRICLUST_CHECK(s.campaign != campaign);
  }
  Stream stream;
  stream.campaign = campaign;
  stream.days = std::move(days);
  streams_.push_back(std::move(stream));
}

void ReplayDriver::AddStream(size_t campaign, const Corpus& corpus) {
  AddStream(campaign, SplitByDay(corpus));
}

void ReplayDriver::AddStream(size_t campaign, int num_days,
                             SnapshotProvider provider) {
  TRICLUST_CHECK_LT(campaign, engine_->num_campaigns());
  TRICLUST_CHECK_GE(num_days, 0);
  TRICLUST_CHECK(provider != nullptr);
  for (const Stream& s : streams_) {
    TRICLUST_CHECK(s.campaign != campaign);
  }
  Stream stream;
  stream.campaign = campaign;
  stream.provider = std::move(provider);
  stream.provider_days = num_days;
  streams_.push_back(std::move(stream));
}

void ReplayDriver::AddObserver(SnapshotCallback observer) {
  TRICLUST_CHECK(observer != nullptr);
  observers_.push_back(std::move(observer));
}

void ReplayDriver::set_day_hook(DayHook hook) { day_hook_ = std::move(hook); }

int ReplayDriver::num_days() const {
  int days = 0;
  for (const Stream& s : streams_) days = std::max(days, s.NumDays());
  return days;
}

ReplayStats ReplayDriver::Replay(const ReplayOptions& options) {
  TRICLUST_CHECK_GE(options.day_interval_ms, 0.0);
  // speedup is documented as ignored when pacing is off (day_interval_ms
  // == 0), so it is only validated — and only used — when pacing is on.
  if (options.day_interval_ms > 0.0) {
    TRICLUST_CHECK_GT(options.speedup, 0.0);
  }

  int days = num_days();
  if (options.max_days > 0) days = std::min(days, options.max_days);
  const double effective_interval_ms =
      options.day_interval_ms > 0.0
          ? options.day_interval_ms / options.speedup
          : 0.0;

  ReplayStats stats;
  stats.campaigns.resize(engine_->num_campaigns());
  for (size_t i = 0; i < stats.campaigns.size(); ++i) {
    stats.campaigns[i].campaign = i;
  }

  const auto fold_reports =
      [&](int day, const std::vector<CampaignEngine::SnapshotReport>& reports,
          ReplayDayStats* day_stats) {
        for (const auto& report : reports) {
          // The day hook may register campaigns mid-run; grow the
          // per-campaign rows to match.
          while (report.campaign >= stats.campaigns.size()) {
            CampaignReplayStats row;
            row.campaign = stats.campaigns.size();
            stats.campaigns.push_back(row);
          }
          CampaignReplayStats& c = stats.campaigns[report.campaign];
          if (report.fitted && report.data.num_tweets() > 0) {
            ++day_stats->fits;
            ++c.snapshots;
            c.tweets += report.data.num_tweets();
            c.solve_ms_total += report.solve_ms;
            c.solve_ms_max = std::max(c.solve_ms_max, report.solve_ms);
          } else if (report.fitted) {
            // A zero-event day (degenerate stream, or include_idle keeping
            // an unfed campaign's timestep aligned) still solves a
            // zero-row snapshot — that is the alignment mechanism, not a
            // fit: counting it inflated `fits` and per-campaign
            // `snapshots` by one per campaign per dead day.
          } else if (engine_->num_pending(report.campaign) > 0) {
            // One deferral event per (day, campaign) whose *pending* fit
            // the deadline skipped; its queue is intact, so num_pending
            // still shows what was deferred. An idle campaign (empty
            // queue, included via include_idle) that misses the deadline
            // had no fit to defer and is not an event — counting it used
            // to inflate every deferred total under deadline pressure.
            ++day_stats->deferred;
            ++c.deferred;
          }
          for (const SnapshotCallback& observer : observers_) {
            observer(day, report);
          }
        }
        stats.total_fits += day_stats->fits;
        stats.total_deferred += day_stats->deferred;
      };

  AdvanceOptions advance;
  advance.deadline_ms = options.deadline_ms;
  advance.include_idle = options.include_idle;

  const Stopwatch run_clock;
  for (int day = 0; day < days; ++day) {
    ReplayDayStats day_stats;
    day_stats.day = day;

    // Pacing: day d is released at d·interval/speedup after the run start.
    // A slow Advance() eats into the next wait rather than shifting every
    // later day (the historical stream does not slow down for the server).
    if (effective_interval_ms > 0.0) {
      const double release_ms = day * effective_interval_ms;
      const double now_ms = run_clock.ElapsedMillis();
      if (now_ms < release_ms) {
        day_stats.wait_ms = release_ms - now_ms;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(day_stats.wait_ms));
      }
    }

    // Campaign churn: the hook may retire campaigns or register + bind new
    // ones before the day's traffic is released.
    if (day_hook_) day_hook_(day);

    Stopwatch phase_clock;
    for (const Stream& s : streams_) {
      if (day >= s.NumDays()) continue;
      if (engine_->retired(s.campaign)) continue;
      Snapshot pulled;
      if (s.provider) pulled = s.provider(day);
      const Snapshot& snap = s.provider ? pulled : s.days[day];
      if (snap.tweet_ids.empty()) continue;
      engine_->Ingest(s.campaign, snap.tweet_ids, snap.last_day);
      day_stats.tweets += snap.tweet_ids.size();
    }
    day_stats.ingest_ms = phase_clock.ElapsedMillis();
    stats.total_tweets += day_stats.tweets;

    phase_clock.Restart();
    const auto reports = engine_->Advance(advance);
    day_stats.advance_ms = phase_clock.ElapsedMillis();

    fold_reports(day, reports, &day_stats);
    stats.days.push_back(day_stats);
  }

  // Drain: deadline pressure may leave queues pending past the last day;
  // one deadline-free Advance() fits them so the run ends caught up.
  if (options.drain) {
    bool pending = false;
    for (const Stream& s : streams_) {
      // A retired campaign's leftover queue can never fit; draining would
      // spin a no-op Advance.
      if (engine_->retired(s.campaign)) continue;
      pending = pending || engine_->num_pending(s.campaign) > 0;
    }
    if (pending) {
      ReplayDayStats day_stats;
      day_stats.day = days;
      const Stopwatch phase_clock;
      AdvanceOptions drain_advance;
      drain_advance.include_idle = false;
      const auto reports = engine_->Advance(drain_advance);
      day_stats.advance_ms = phase_clock.ElapsedMillis();
      fold_reports(days, reports, &day_stats);
      stats.days.push_back(day_stats);
    }
  }

  stats.wall_ms = run_clock.ElapsedMillis();
  return stats;
}

std::vector<std::vector<Snapshot>> PartitionIntoStreams(const Corpus& corpus,
                                                        size_t num_streams) {
  TRICLUST_CHECK_GE(num_streams, 1u);
  const int days = corpus.num_days();
  std::vector<std::vector<Snapshot>> streams(
      num_streams, std::vector<Snapshot>(static_cast<size_t>(days)));
  for (auto& stream : streams) {
    for (int day = 0; day < days; ++day) {
      stream[static_cast<size_t>(day)].first_day = day;
      stream[static_cast<size_t>(day)].last_day = day;
    }
  }
  for (const Tweet& t : corpus.tweets()) {
    streams[t.user % num_streams][static_cast<size_t>(t.day)]
        .tweet_ids.push_back(t.id);
  }
  return streams;
}

}  // namespace serving
}  // namespace triclust
