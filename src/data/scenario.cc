#include "src/data/scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/logging.h"

namespace triclust {

namespace {

/// Common base of the catalog: a Prop-30-like 20-day campaign, small
/// enough that every scenario replays in seconds yet large enough that
/// the accuracy floors are stable. Scenario seeds are offsets from here
/// so no two scenarios share a corpus.
SyntheticConfig BaseConfig(uint64_t seed_offset) {
  SyntheticConfig config;
  config.seed = 4242 + seed_offset;
  config.num_users = 400;
  config.num_days = 20;
  config.base_tweets_per_day = 150.0;
  config.burst_days = {12};
  config.burst_multiplier = 3.0;
  return config;
}

/// Population/volume knobs scale; the day structure does not (see
/// GetScenario's contract).
void ApplyScale(double scale, SyntheticConfig* config) {
  if (scale == 1.0) return;
  config->num_users = std::max<size_t>(
      50, static_cast<size_t>(std::lround(config->num_users * scale)));
  config->base_tweets_per_day =
      std::max(20.0, config->base_tweets_per_day * scale);
  config->num_spam_users =
      static_cast<size_t>(std::lround(config->num_spam_users * scale));
}

Scenario SpamBotnet() {
  Scenario s;
  s.name = "spam_botnet";
  s.description =
      "a coordinated bot fleet (half the genuine population, several "
      "tweets each per day, 90% polar tokens of a random class) floods "
      "every campaign's matrix with unlabeled spam";
  s.config = BaseConfig(1);
  s.config.num_spam_users = 200;
  s.config.spam_tweets_per_user_per_day = 2.5;
  s.config.spam_polar_word_rate = 0.9;
  s.expect.min_tweet_accuracy = 0.42;
  s.expect.min_user_accuracy = 0.42;
  // Spam is noise, not poison: it must never produce non-finite factors,
  // so the flood alone may not quarantine (or even degrade past recovery)
  // any campaign.
  s.expect.max_quarantined = 0;
  s.expect.min_healthy = s.num_campaigns;
  s.expect.expected_days = s.config.num_days;
  s.expect.min_tweets = 4000;
  return s;
}

Scenario TopicHijack() {
  Scenario s;
  s.name = "topic_hijack";
  s.description =
      "the polar word pools swap roles on day 10 of 20: text generated "
      "after the hijack contradicts every lexicon learned before it, "
      "while user stances and labels are unchanged";
  s.config = BaseConfig(2);
  s.config.hijack_day = 10;
  // Half the stream actively contradicts the prior; the floor is what the
  // online solver still extracts across the flip.
  s.expect.min_tweet_accuracy = 0.55;
  s.expect.min_user_accuracy = 0.55;
  s.expect.max_quarantined = 0;
  s.expect.min_healthy = s.num_campaigns;
  s.expect.expected_days = s.config.num_days;
  s.expect.min_tweets = 2000;
  return s;
}

Scenario BurstExtreme() {
  Scenario s;
  s.name = "burst_extreme";
  s.description =
      "election-night load: three burst days at 12x the base volume, "
      "stressing snapshot batching and per-day solve latency";
  s.config = BaseConfig(3);
  s.config.burst_days = {5, 12, 18};
  s.config.burst_multiplier = 12.0;
  s.expect.min_tweet_accuracy = 0.60;
  s.expect.min_user_accuracy = 0.60;
  s.expect.max_quarantined = 0;
  s.expect.min_healthy = s.num_campaigns;
  s.expect.expected_days = s.config.num_days;
  s.expect.min_tweets = 6000;
  return s;
}

Scenario CampaignChurn() {
  Scenario s;
  s.name = "campaign_churn";
  s.description =
      "fleet churn mid-replay: campaign 0 is retired on day 7, a third "
      "campaign launches on day 9, campaign 1 is retired on day 15 — the "
      "survivors' factors must be bit-identical to a fleet that never "
      "co-hosted them";
  s.config = BaseConfig(4);
  s.churn.push_back({7, ChurnEvent::Action::kRetire, 0, ""});
  s.churn.push_back({9, ChurnEvent::Action::kLaunch, 0, "late-entry"});
  s.churn.push_back({15, ChurnEvent::Action::kRetire, 1, ""});
  s.expect.min_tweet_accuracy = 0.55;
  s.expect.min_user_accuracy = 0.50;
  s.expect.max_quarantined = 0;
  // One launched minus two retired: one live campaign at the end.
  s.expect.min_healthy = 1;
  s.expect.expected_retired = 2;
  s.expect.expected_days = s.config.num_days;
  // Lower than the other scenarios: retired campaigns stop ingesting, so
  // the replay carries roughly half the generated traffic.
  s.expect.min_tweets = 1500;
  return s;
}

Scenario EmptyDays() {
  Scenario s;
  s.name = "empty_days";
  s.description =
      "degenerate stream: the campaign opens with two dead days, goes "
      "silent for a three-day run in the middle, and ends on a dead day "
      "— every campaign sees zero-event snapshots at every position";
  s.config = BaseConfig(5);
  s.config.dead_days = {0, 1, 9, 10, 11, 19};
  s.expect.min_tweet_accuracy = 0.60;
  s.expect.min_user_accuracy = 0.55;
  s.expect.max_quarantined = 0;
  s.expect.min_healthy = s.num_campaigns;
  s.expect.expected_days = s.config.num_days - 1;  // day 19 is dead:
  // num_days() is derived from the last populated day, so the replay
  // horizon ends at day 18 (matching ReadTsv + SplitByDay of the same
  // corpus, which cannot see trailing silence either).
  s.expect.min_tweets = 1500;
  return s;
}

Scenario DriftStorm() {
  Scenario s;
  s.name = "drift_storm";
  s.description =
      "vocabulary drift at 6x the paper's observed rate plus doubled "
      "off-class noise: the floor scenario for how much signal the "
      "tri-cluster coupling still extracts from a churning vocabulary";
  s.config = BaseConfig(6);
  s.config.vocab_drift_per_day = 0.25;
  s.config.off_class_noise = 0.25;
  s.expect.min_tweet_accuracy = 0.60;
  s.expect.min_user_accuracy = 0.55;
  s.expect.max_quarantined = 0;
  s.expect.min_healthy = s.num_campaigns;
  s.expect.expected_days = s.config.num_days;
  s.expect.min_tweets = 2000;
  return s;
}

}  // namespace

size_t Scenario::NumStreams() const {
  size_t launches = 0;
  for (const ChurnEvent& e : churn) {
    if (e.action == ChurnEvent::Action::kLaunch) ++launches;
  }
  return num_campaigns + launches;
}

std::vector<std::string> ScenarioNames() {
  return {"spam_botnet",    "topic_hijack", "burst_extreme",
          "campaign_churn", "empty_days",   "drift_storm"};
}

Result<Scenario> GetScenario(const std::string& name, double scale) {
  if (!(scale > 0.0) || scale > 1.0) {
    return Status::InvalidArgument("scenario scale must be in (0, 1], got " +
                                   std::to_string(scale));
  }
  Scenario scenario;
  if (name == "spam_botnet") {
    scenario = SpamBotnet();
  } else if (name == "topic_hijack") {
    scenario = TopicHijack();
  } else if (name == "burst_extreme") {
    scenario = BurstExtreme();
  } else if (name == "campaign_churn") {
    scenario = CampaignChurn();
  } else if (name == "empty_days") {
    scenario = EmptyDays();
  } else if (name == "drift_storm") {
    scenario = DriftStorm();
  } else {
    std::string known;
    for (const std::string& n : ScenarioNames()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status::NotFound("unknown scenario '" + name + "' (known: " +
                            known + ")");
  }
  ApplyScale(scale, &scenario.config);
  scenario.expect.min_tweets = static_cast<size_t>(
      std::lround(scenario.expect.min_tweets * scale));
  return scenario;
}

std::vector<Scenario> AllScenarios(double scale) {
  std::vector<Scenario> all;
  for (const std::string& name : ScenarioNames()) {
    Result<Scenario> scenario = GetScenario(name, scale);
    TRICLUST_CHECK(scenario.ok());
    all.push_back(std::move(scenario).value());
  }
  return all;
}

}  // namespace triclust
