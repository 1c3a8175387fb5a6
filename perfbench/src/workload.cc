#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "stats.h"
#include "topkpkg/topkpkg.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using topkpkg::Result;
using topkpkg::Rng;
using topkpkg::Status;
using topkpkg::Vec;
namespace model = topkpkg::model;
namespace recsys = topkpkg::recsys;
namespace serving = topkpkg::serving;
namespace storage = topkpkg::storage;

// The catalog every workload serves: MakeWorkbench("UNI", 2000, m=3, φ=3)
// and MakePrior(3, 2, ·) of the repo's benches, rebuilt here so the
// benchmark depends on the library alone. Fixed across seeds, so the seed
// varies only what users do.
constexpr std::size_t kItems = 2000;
constexpr std::size_t kFeatures = 3;
constexpr std::size_t kPhi = 3;
constexpr std::uint64_t kCatalogSeed = 7;
constexpr std::uint64_t kPriorSeed = 8;
// Library-default RecommenderOptions rank max(k, num_recommended) = 5.
constexpr std::size_t kTopK = 5;
constexpr std::size_t kPresented = 10;

// Odd, so the median Feedback falls inside one round's cost distribution
// (round 4) instead of on the steep edge between rounds 3 and 4, where it
// swung by a quarter between seeds.
constexpr std::size_t kColdRounds = 7;
constexpr std::size_t kNoisySessions = 8;
// noisy_long candidates warm up for this many rounds, and each panel user
// gets at most kMaxAttempts candidates.
constexpr std::size_t kWarmupRounds = 8;
constexpr std::size_t kMaxAttempts = 32;
// noisy_long's users are one fixed panel: a session's cost and quality in
// the budget-bound regime depend mostly on where its user's w* sits
// relative to the prior, so users drawn per seed made both swing by ±25%
// between seeds. The workload seed still drives every session's clicks and
// sampling streams.
constexpr std::uint64_t kNoisyPanelSeed = 0x5eed;
constexpr std::size_t kNoisyCycle = 2;  // Feedback, then GetTopK.
constexpr std::size_t kTemplates = 16;
constexpr std::size_t kTemplateRounds = 8;
constexpr std::size_t kLruCapacity = 64;

// Independent seeded streams, one per kind of generated input.
enum Stream : std::uint64_t {
  kUserStream = 1,
  kSessionSeedStream,
  kTemplateSeedStream,
  kTemplateUserStream,
  kPickStream,
  kPartitionStream,
};

std::uint64_t Mix(std::uint64_t seed, Stream stream, std::uint64_t idx) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull ^ stream;
  topkpkg::SplitMix64(s);
  s ^= (idx + 1) * 0xbf58476d1ce4e5b9ull;
  return topkpkg::SplitMix64(s);
}

struct Catalog {
  std::unique_ptr<model::ItemTable> table;
  std::unique_ptr<model::Profile> profile;
  std::unique_ptr<model::PackageEvaluator> evaluator;
  std::unique_ptr<topkpkg::prob::GaussianMixture> prior;
  std::unique_ptr<topkpkg::topk::TopKPkgSearch> exact;
  std::vector<Vec> singletons;  // p̂ of every one-item package.
};

Result<std::unique_ptr<Catalog>> BuildCatalog() {
  auto c = std::make_unique<Catalog>();
  TOPKPKG_ASSIGN_OR_RETURN(
      model::ItemTable table,
      topkpkg::data::GenerateSynthetic(topkpkg::data::SyntheticKind::kUniform,
                                       kItems, kFeatures, kCatalogSeed));
  c->table = std::make_unique<model::ItemTable>(std::move(table));
  // Alternating sum/avg aggregates, the benches' DefaultProfile.
  std::vector<model::AggregateOp> ops;
  for (std::size_t f = 0; f < kFeatures; ++f) {
    ops.push_back(f % 2 == 0 ? model::AggregateOp::kSum
                             : model::AggregateOp::kAvg);
  }
  TOPKPKG_ASSIGN_OR_RETURN(model::Profile profile,
                           model::Profile::Create(std::move(ops)));
  c->profile = std::make_unique<model::Profile>(std::move(profile));
  c->evaluator = std::make_unique<model::PackageEvaluator>(
      c->table.get(), c->profile.get(), kPhi);
  Rng rng(kPriorSeed);
  c->prior = std::make_unique<topkpkg::prob::GaussianMixture>(
      topkpkg::prob::GaussianMixture::Random(kFeatures, 2, 0.45, rng));
  c->exact = std::make_unique<topkpkg::topk::TopKPkgSearch>(c->evaluator.get());
  for (std::size_t i = 0; i < kItems; ++i) {
    c->singletons.push_back(c->evaluator->FeatureVector(
        model::Package::Of({static_cast<model::ItemId>(i)})));
  }
  return c;
}

// w* uniform in [-1,1]^m, redrawn until some single item has positive true
// utility — so U*(exact top-1) > 0 and U*(recommended) / U*(exact top-1)
// is a meaningful ratio. Checked over the catalog's singleton feature
// vectors rather than with a library search, which would count in the
// search layer's telemetry during the window.
recsys::SimulatedUser DrawUser(const Catalog& c, std::uint64_t seed,
                               Stream stream, std::uint64_t idx, double psi) {
  Rng rng(Mix(seed, stream, idx));
  for (;;) {
    Vec w = rng.UniformVector(kFeatures, -1.0, 1.0);
    for (const Vec& item : c.singletons) {
      if (topkpkg::Dot(w, item) > 0.0) {
        return recsys::SimulatedUser(std::move(w), psi);
      }
    }
  }
}

// Where the true utility of `top1` falls between the worst and the best
// package under w*: (U*(top1) - U*(worst)) / (U*(best) - U*(worst)), so the
// exact top-1 scores 1 and the worst package 0. Both ends come from
// TopKPkgSearch::Search(±w*, 1). (The plain ratio U*(top1) / U*(best) goes
// negative whenever a noisy session recommends a package its user dislikes,
// which leaves a seed-to-seed spread no bound can hold.)
Result<double> QualityRatio(const Catalog& c, const recsys::SimulatedUser& u,
                            const model::Package& top1) {
  Vec negated = u.hidden_weights();
  for (double& v : negated) v = -v;
  TOPKPKG_ASSIGN_OR_RETURN(topkpkg::topk::SearchResult best,
                           c.exact->Search(u.hidden_weights(), 1));
  TOPKPKG_ASSIGN_OR_RETURN(topkpkg::topk::SearchResult worst,
                           c.exact->Search(negated, 1));
  if (best.packages.empty() || worst.packages.empty()) {
    return Status::Internal("exact search returned no package");
  }
  const double hi = best.packages[0].utility;
  const double lo = -worst.packages[0].utility;
  if (!(hi > lo)) return Status::Internal("user with a flat utility");
  return (u.TrueUtility(c.evaluator->FeatureVector(top1)) - lo) / (hi - lo);
}

// fleet_churn's request picks for one client: Zipf(s=1) popularity rank
// within the client's partition, then GetTopK or Feedback at 50/50.
class FleetPicker {
 public:
  FleetPicker(std::uint64_t seed, std::size_t client, std::size_t n)
      : rng_(Mix(seed, kPickStream, client)), cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = total;
    }
    for (double& v : cdf_) v /= total;
  }

  struct Pick {
    std::size_t rank = 0;
    bool read = false;
  };
  Pick Next() {
    Pick p;
    const double u = rng_.Uniform();
    p.rank = std::min<std::size_t>(
        cdf_.size() - 1,
        static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                 cdf_.begin()));
    p.read = rng_.Uniform() < 0.5;
    return p;
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

// Session indices of one client's fleet_churn partition (idx % clients ==
// client), shuffled by the seed: position r holds the popularity-rank-r
// session.
std::vector<std::size_t> Partition(std::uint64_t seed, std::size_t fleet,
                                   std::size_t clients, std::size_t client) {
  std::vector<std::size_t> part;
  for (std::size_t idx = client; idx < fleet; idx += clients) {
    part.push_back(idx);
  }
  Rng rng(Mix(seed, kPartitionStream, client));
  for (std::size_t i = part.size(); i > 1; --i) {
    std::swap(part[i - 1], part[rng.UniformInt(i)]);
  }
  return part;
}

std::uint64_t SessionSeed(std::uint64_t seed, std::size_t idx) {
  return Mix(seed, kSessionSeedStream, idx);
}

// Session idx's hidden user. fleet_churn sessions continue their template's
// user; noisy_long's come from the fixed panel.
recsys::SimulatedUser UserFor(const Catalog& c, const WorkloadSpec& spec,
                              std::uint64_t seed, std::size_t idx) {
  switch (spec.kind) {
    case WorkloadKind::kFleetChurn:
      return DrawUser(c, seed, kTemplateUserStream, idx % kTemplates, 1.0);
    case WorkloadKind::kNoisyLong:
      return DrawUser(c, kNoisyPanelSeed, kUserStream, idx % kNoisySessions,
                      spec.user_psi);
    case WorkloadKind::kColdStart:
      break;
  }
  return DrawUser(c, seed, kUserStream, idx, spec.user_psi);
}

recsys::RecommenderOptions RecommenderFor(const WorkloadSpec& spec) {
  recsys::RecommenderOptions o;  // MCMC, EXP, 300 samples, 5 + 5 presented.
  o.sampler_base.noise.psi = spec.user_psi;
  return o;
}

Status CheckPackage(const model::Package& p) {
  if (p.empty() || p.size() > kPhi) {
    return Status::Internal("package of size " + std::to_string(p.size()));
  }
  for (model::ItemId id : p.items()) {
    if (id >= kItems) {
      return Status::Internal("item id " + std::to_string(id) + " >= n");
    }
  }
  return Status::OK();
}

Status CheckTopK(const std::vector<model::Package>& top_k) {
  if (top_k.size() != kTopK) {
    return Status::Internal("top-k of " + std::to_string(top_k.size()) +
                            " packages, want " + std::to_string(kTopK));
  }
  for (const model::Package& p : top_k) TOPKPKG_RETURN_IF_ERROR(CheckPackage(p));
  return Status::OK();
}

Status CheckRound(const recsys::RoundLog& log) {
  TOPKPKG_RETURN_IF_ERROR(CheckTopK(log.top_k));
  if (log.presented.size() != kPresented || log.clicked >= kPresented) {
    return Status::Internal("round presented " +
                            std::to_string(log.presented.size()) +
                            " packages, clicked " + std::to_string(log.clicked));
  }
  for (const model::Package& p : log.presented) {
    TOPKPKG_RETURN_IF_ERROR(CheckPackage(p));
  }
  return Status::OK();
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Runs fn(0..n-1) on up to `width` threads; the first error wins.
Status ForEachParallel(std::size_t n, std::size_t width,
                       const std::function<Status(std::size_t)>& fn) {
  std::vector<Status> outcomes(n);
  std::vector<std::thread> threads;
  width = std::max<std::size_t>(1, std::min(width, n));
  for (std::size_t w = 0; w < width; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += width) outcomes[i] = fn(i);
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Status& st : outcomes) TOPKPKG_RETURN_IF_ERROR(st);
  return Status::OK();
}

// One reply kept for the output check.
struct Reply {
  bool feedback = false;
  std::size_t clicked = 0;
  std::vector<model::Package> top_k;
};

// Per-client accumulators, merged after the window.
struct Tally {
  std::vector<double> feedback_ms;
  std::vector<double> topk_ms;
  std::vector<double> requests_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  RoundTotals totals;
  Clock::time_point last_done{};
  Status error;  // First failed or malformed reply.

  bool Fail(const Status& st) {
    ++failed;
    if (error.ok()) error = st;
    return false;
  }
};

// One set-up + window + teardown. Members are declared so the manager is
// destroyed before the store it writes to.
class Window {
 public:
  Window(const RunOptions& opts, const WorkloadSpec& spec, bool traced)
      : opts_(opts),
        spec_(spec),
        traced_(traced),
        dir_(opts.work_dir + "/" + spec.name + (traced ? "-traced" : "")),
        store_dir_(dir_ + "/store"),
        trace_path_(dir_ + "/trace.jsonl") {}

  ~Window() {
    manager_.reset();
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  Status SetUp();
  Status Drive();
  Status TearDown();
  Status Check();
  WindowResult& result() { return result_; }

 private:
  Status PrePopulate();
  Status PrePopulateNoisy(storage::SessionStore& store);
  Status PrePopulateFleet(storage::SessionStore& store);
  Result<std::unique_ptr<recsys::PackageRecommender>> WarmUp(
      std::size_t idx, bool* heavy) const;
  void ClientLoop(std::size_t client, Tally& t);
  bool DoFeedback(Tally& t, serving::SessionHandle h,
                  const recsys::SimulatedUser* user, std::vector<Reply>* keep);
  bool DoTopK(Tally& t, serving::SessionHandle h, std::vector<Reply>* keep);
  bool DoEnd(Tally& t, serving::SessionHandle h);
  std::vector<Reply>* Tracked(std::size_t idx);
  std::size_t TrackedSession(std::size_t slot) const;
  recsys::SimulatedUser UserOf(std::size_t idx) const;
  Result<std::unique_ptr<recsys::PackageRecommender>> NewTemplate(
      std::size_t t) const;
  Status Replay(std::size_t slot) const;

  const RunOptions opts_;
  const WorkloadSpec spec_;
  const bool traced_;
  const std::string dir_;
  const std::string store_dir_;
  const std::string trace_path_;

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<storage::SessionStore> store_;
  std::unique_ptr<serving::SessionManager> manager_;
  std::vector<serving::SessionHandle> handles_;
  // Replies of the tracked sessions, one slot each. A slot is written only
  // by the client driving its session.
  std::vector<std::vector<Reply>> tracked_;

  // noisy_long: the 8 sessions' users; fleet_churn: the 16 templates'.
  std::vector<recsys::SimulatedUser> users_;
  // noisy_long: resident sessions, round-robin over a ready queue so a
  // session is driven by one client at a time and no client idles.
  std::vector<std::size_t> steps_;
  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  std::deque<std::size_t> ready_;

  // cold_start: the next new session.
  std::atomic<std::size_t> next_session_{0};

  // fleet_churn: per-client partitions.
  std::vector<std::vector<std::size_t>> partitions_;
  // noisy_long and fleet_churn: the session index of each tracked slot.
  std::vector<std::size_t> tracked_ids_;
  double template_quality_ = 0.0;

  Clock::time_point start_{};
  Clock::time_point deadline_{};
  WindowResult result_;
};

std::vector<Reply>* Window::Tracked(std::size_t idx) {
  if (spec_.kind == WorkloadKind::kFleetChurn) {
    for (std::size_t slot = 0; slot < tracked_ids_.size(); ++slot) {
      if (tracked_ids_[slot] == idx) return &tracked_[slot];
    }
    return nullptr;
  }
  return idx < tracked_.size() ? &tracked_[idx] : nullptr;
}

std::size_t Window::TrackedSession(std::size_t slot) const {
  return spec_.kind == WorkloadKind::kColdStart ? slot : tracked_ids_[slot];
}

recsys::SimulatedUser Window::UserOf(std::size_t idx) const {
  return UserFor(*catalog_, spec_, opts_.seed, idx);
}

Status Window::SetUp() {
  const Clock::time_point t0 = Clock::now();
  std::error_code ec;
  fs::remove_all(dir_, ec);
  fs::create_directories(dir_, ec);
  if (ec) return Status::Internal("cannot create " + dir_ + ": " + ec.message());
  TOPKPKG_ASSIGN_OR_RETURN(catalog_, BuildCatalog());
  if (spec_.kind != WorkloadKind::kColdStart) {
    TOPKPKG_RETURN_IF_ERROR(PrePopulate());
  }

  // The serving store: library defaults, i.e. FsyncPolicy::kInterval with
  // group commit 32.
  const Clock::time_point open0 = Clock::now();
  TOPKPKG_ASSIGN_OR_RETURN(storage::SessionStore store,
                           storage::SessionStore::Open(store_dir_));
  result_.open_s = Seconds(open0, Clock::now());
  store_ = std::make_unique<storage::SessionStore>(std::move(store));

  serving::SessionManagerOptions mopts;
  mopts.recommender = RecommenderFor(spec_);
  mopts.max_hydrated_sessions = kLruCapacity;
  mopts.num_workers = opts_.workers;
  if (traced_) {
    mopts.trace_sample_every = 1;
    mopts.trace_jsonl_path = trace_path_;
  }
  TOPKPKG_ASSIGN_OR_RETURN(
      manager_, serving::SessionManager::Create(catalog_->evaluator.get(),
                                                catalog_->prior.get(),
                                                store_.get(), mopts));

  switch (spec_.kind) {
    case WorkloadKind::kColdStart:
      tracked_.resize(spec_.tracked);
      break;
    case WorkloadKind::kNoisyLong:
      tracked_.resize(tracked_ids_.size());
      steps_.assign(tracked_ids_.size(), 0);
      for (std::size_t s = 0; s < tracked_ids_.size(); ++s) {
        const std::size_t idx = tracked_ids_[s];
        users_.push_back(UserOf(idx));
        TOPKPKG_ASSIGN_OR_RETURN(
            serving::SessionHandle h,
            manager_->StartSession(idx + 1, SessionSeed(opts_.seed, idx)));
        handles_.push_back(h);
        ready_.push_back(s);
      }
      break;
    case WorkloadKind::kFleetChurn:
      for (std::size_t idx = 0; idx < spec_.fleet; ++idx) {
        TOPKPKG_ASSIGN_OR_RETURN(
            serving::SessionHandle h,
            manager_->StartSession(idx + 1, SessionSeed(opts_.seed, idx)));
        handles_.push_back(h);
      }
      break;
  }
  result_.setup_s = Seconds(t0, Clock::now());
  return Status::OK();
}

// Writes the sessions the window starts from into a store opened with
// FsyncPolicy::kNone and synced once, so set-up measures the work rather
// than an fsync per checkpoint; the serving store re-opens it.
Status Window::PrePopulate() {
  storage::SessionStoreOptions sopts;
  sopts.fsync_policy = storage::FsyncPolicy::kNone;
  TOPKPKG_ASSIGN_OR_RETURN(storage::SessionStore store,
                           storage::SessionStore::Open(store_dir_, sopts));
  TOPKPKG_RETURN_IF_ERROR(spec_.kind == WorkloadKind::kFleetChurn
                              ? PrePopulateFleet(store)
                              : PrePopulateNoisy(store));
  return store.Sync();
}

// noisy_long: each of the kNoisySessions panel users gets candidate
// sessions idx = attempt * kNoisySessions + slot, each run for
// kWarmupRounds rounds on a bare recommender. A user's first candidate with
// a round that spent the sampler's whole proposal budget — the regime this
// workload measures — becomes its resident session, checkpointed where the
// manager hydrates it from; every session thus enters the window at the
// same round. When a session enters that regime depends on its noisy clicks
// (anywhere from round 2 to never), so without this filter the mix of cheap
// and budget-bound sessions, and with it every latency, would change from
// seed to seed.
Status Window::PrePopulateNoisy(storage::SessionStore& store) {
  std::vector<std::unique_ptr<recsys::PackageRecommender>> recs(spec_.tracked);
  tracked_ids_.assign(spec_.tracked, 0);
  TOPKPKG_RETURN_IF_ERROR(ForEachParallel(
      spec_.tracked, opts_.workers, [&](std::size_t slot) -> Status {
        for (std::size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
          const std::size_t idx = attempt * kNoisySessions + slot;
          bool heavy = false;
          TOPKPKG_ASSIGN_OR_RETURN(recs[slot], WarmUp(idx, &heavy));
          if (heavy) {
            tracked_ids_[slot] = idx;
            return Status::OK();
          }
        }
        return Status::Internal("noisy_long user " + std::to_string(slot) +
                                " never reached the sampling budget");
      }));
  for (std::size_t slot = 0; slot < spec_.tracked; ++slot) {
    TOPKPKG_RETURN_IF_ERROR(
        recs[slot]->Checkpoint(store, tracked_ids_[slot] + 1));
  }
  return Status::OK();
}

// A noisy_long candidate after its kWarmupRounds rounds; *heavy reports
// whether any of them spent the sampler's whole proposal budget.
Result<std::unique_ptr<recsys::PackageRecommender>> Window::WarmUp(
    std::size_t idx, bool* heavy) const {
  const recsys::RecommenderOptions ropts = RecommenderFor(spec_);
  TOPKPKG_ASSIGN_OR_RETURN(
      std::unique_ptr<recsys::PackageRecommender> rec,
      recsys::PackageRecommender::Create(catalog_->evaluator.get(),
                                         catalog_->prior.get(), ropts,
                                         SessionSeed(opts_.seed, idx)));
  const recsys::SimulatedUser user = UserOf(idx);
  *heavy = false;
  for (std::size_t r = 0; r < kWarmupRounds; ++r) {
    TOPKPKG_ASSIGN_OR_RETURN(recsys::RoundLog log, rec->RunRound(user));
    *heavy = *heavy || log.sampling_stats.proposed >=
                           ropts.sampler_base.max_attempts_per_sample;
  }
  return rec;
}

// fleet_churn: runs the 16 template sessions for 8 rounds each, checkpoints
// each once, then copies its records under every fleet id with template
// t = idx % 16, so every fleet session restores to its template's
// converged state.
Status Window::PrePopulateFleet(storage::SessionStore& store) {
  for (std::size_t t = 0; t < kTemplates; ++t) users_.push_back(UserOf(t));
  std::vector<std::unique_ptr<recsys::PackageRecommender>> templates(
      kTemplates);
  std::vector<double> quality(kTemplates, 0.0);
  TOPKPKG_RETURN_IF_ERROR(
      ForEachParallel(kTemplates, opts_.workers, [&](std::size_t t) -> Status {
        TOPKPKG_ASSIGN_OR_RETURN(templates[t], NewTemplate(t));
        TOPKPKG_RETURN_IF_ERROR(CheckTopK(templates[t]->current_top_k()));
        TOPKPKG_ASSIGN_OR_RETURN(
            quality[t],
            QualityRatio(*catalog_, users_[t], templates[t]->current_top_k()[0]));
        return Status::OK();
      }));
  for (double q : quality) template_quality_ += q / kTemplates;

  std::vector<std::vector<std::pair<storage::RecordKind, std::string>>> records(
      kTemplates);
  for (std::size_t t = 0; t < kTemplates && t < spec_.fleet; ++t) {
    TOPKPKG_RETURN_IF_ERROR(templates[t]->Checkpoint(store, t + 1));
    for (storage::RecordKind kind : store.KindsOf(t + 1)) {
      TOPKPKG_ASSIGN_OR_RETURN(std::string payload, store.Get(t + 1, kind));
      records[t].emplace_back(kind, std::move(payload));
    }
  }
  for (std::size_t idx = kTemplates; idx < spec_.fleet; ++idx) {
    for (const auto& [kind, payload] : records[idx % kTemplates]) {
      TOPKPKG_RETURN_IF_ERROR(store.Put(idx + 1, kind, payload));
    }
  }

  const std::size_t per_client =
      std::max<std::size_t>(1, spec_.tracked / opts_.clients);
  for (std::size_t c = 0; c < opts_.clients; ++c) {
    partitions_.push_back(Partition(opts_.seed, spec_.fleet, opts_.clients, c));
    // The most popular sessions of each partition are the tracked ones.
    for (std::size_t r = 0; r < per_client && r < partitions_[c].size(); ++r) {
      tracked_ids_.push_back(partitions_[c][r]);
    }
  }
  tracked_.resize(tracked_ids_.size());
  return Status::OK();
}

// fleet_churn template t after its 8 rounds.
Result<std::unique_ptr<recsys::PackageRecommender>> Window::NewTemplate(
    std::size_t t) const {
  TOPKPKG_ASSIGN_OR_RETURN(
      std::unique_ptr<recsys::PackageRecommender> rec,
      recsys::PackageRecommender::Create(
          catalog_->evaluator.get(), catalog_->prior.get(),
          RecommenderFor(spec_), Mix(opts_.seed, kTemplateSeedStream, t)));
  const recsys::SimulatedUser user = UserOf(t);
  for (std::size_t r = 0; r < kTemplateRounds; ++r) {
    TOPKPKG_RETURN_IF_ERROR(rec->RunRound(user).status());
  }
  return rec;
}

bool Window::DoFeedback(Tally& t, serving::SessionHandle h,
                        const recsys::SimulatedUser* user,
                        std::vector<Reply>* keep) {
  ++t.attempted;
  const Clock::time_point t0 = Clock::now();
  Result<recsys::RoundLog> r = h.Feedback(user).get();
  t.last_done = Clock::now();
  if (!r.ok()) return t.Fail(r.status());
  const double ms = Seconds(t0, t.last_done) * 1e3;
  t.feedback_ms.push_back(ms);
  t.requests_ms.push_back(ms);
  const Status wf = CheckRound(*r);
  if (!wf.ok()) return t.Fail(wf);
  const recsys::RoundLog& log = *r;
  t.totals.proposed += log.sampling_stats.proposed;
  t.totals.accepted += log.sampling_stats.accepted;
  t.totals.constraint_checks += log.sampling_stats.constraint_checks;
  t.totals.resampled += log.samples_resampled;
  t.totals.cache_hits += log.searches_skipped;
  t.totals.deduped += log.searches_deduped;
  t.totals.unique_searches += log.searches_unique;
  if (keep != nullptr) keep->push_back(Reply{true, log.clicked, log.top_k});
  return true;
}

bool Window::DoTopK(Tally& t, serving::SessionHandle h,
                    std::vector<Reply>* keep) {
  ++t.attempted;
  const Clock::time_point t0 = Clock::now();
  Result<serving::TopKSnapshot> r = h.GetTopK().get();
  t.last_done = Clock::now();
  if (!r.ok()) return t.Fail(r.status());
  const double ms = Seconds(t0, t.last_done) * 1e3;
  t.topk_ms.push_back(ms);
  t.requests_ms.push_back(ms);
  const Status wf = CheckTopK(r->top_k);
  if (!wf.ok()) return t.Fail(wf);
  if (keep != nullptr) keep->push_back(Reply{false, 0, r->top_k});
  return true;
}

bool Window::DoEnd(Tally& t, serving::SessionHandle h) {
  ++t.attempted;
  const Clock::time_point t0 = Clock::now();
  const Status st = h.End().get();
  t.last_done = Clock::now();
  if (!st.ok()) return t.Fail(st);
  t.requests_ms.push_back(Seconds(t0, t.last_done) * 1e3);
  return true;
}

void Window::ClientLoop(std::size_t client, Tally& t) {
  switch (spec_.kind) {
    case WorkloadKind::kColdStart:
      while (Clock::now() < deadline_) {
        const std::size_t idx = next_session_.fetch_add(1);
        const recsys::SimulatedUser user = UserOf(idx);
        Result<serving::SessionHandle> h =
            manager_->StartSession(idx + 1, SessionSeed(opts_.seed, idx));
        if (!h.ok()) {
          t.Fail(h.status());
          return;
        }
        std::vector<Reply>* keep = Tracked(idx);
        for (std::size_t r = 0; r < kColdRounds; ++r) {
          if (!DoFeedback(t, *h, &user, keep) || !DoTopK(t, *h, keep)) return;
        }
        if (!DoEnd(t, *h)) return;
      }
      return;
    case WorkloadKind::kNoisyLong:
      while (Clock::now() < deadline_) {
        std::size_t s = 0;
        {
          std::unique_lock<std::mutex> lock(ready_mu_);
          ready_cv_.wait(lock, [this] { return !ready_.empty(); });
          s = ready_.front();
          ready_.pop_front();
        }
        const std::size_t step = steps_[s]++;
        const bool ok = step % kNoisyCycle == kNoisyCycle - 1
                            ? DoTopK(t, handles_[s], &tracked_[s])
                            : DoFeedback(t, handles_[s], &users_[s],
                                         &tracked_[s]);
        {
          std::lock_guard<std::mutex> lock(ready_mu_);
          ready_.push_back(s);
        }
        ready_cv_.notify_one();
        if (!ok) return;
      }
      return;
    case WorkloadKind::kFleetChurn: {
      const std::vector<std::size_t>& part = partitions_[client];
      FleetPicker picker(opts_.seed, client, part.size());
      while (Clock::now() < deadline_) {
        const FleetPicker::Pick pick = picker.Next();
        const std::size_t idx = part[pick.rank];
        std::vector<Reply>* keep = Tracked(idx);
        const bool ok =
            pick.read
                ? DoTopK(t, handles_[idx], keep)
                : DoFeedback(t, handles_[idx], &users_[idx % kTemplates],
                             keep);
        if (!ok) return;
      }
      return;
    }
  }
}

Status Window::Drive() {
  std::vector<Tally> tallies(opts_.clients);
  result_.before = TakeSnapshot();
  const serving::SessionManager::Stats stats0 = manager_->stats();
  start_ = Clock::now();
  deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opts_.seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < opts_.clients; ++c) {
    clients.emplace_back([this, c, &tallies] { ClientLoop(c, tallies[c]); });
  }
  for (std::thread& th : clients) th.join();
  result_.after = TakeSnapshot();
  const serving::SessionManager::Stats stats1 = manager_->stats();

  Status first_error;
  Clock::time_point last = start_;
  for (Tally& t : tallies) {
    last = std::max(last, t.last_done);
    result_.feedback_ms.insert(result_.feedback_ms.end(), t.feedback_ms.begin(),
                               t.feedback_ms.end());
    result_.topk_ms.insert(result_.topk_ms.end(), t.topk_ms.begin(),
                           t.topk_ms.end());
    result_.requests_ms.insert(result_.requests_ms.end(),
                               t.requests_ms.begin(), t.requests_ms.end());
    result_.attempted += t.attempted;
    result_.failed += t.failed;
    result_.totals.Add(t.totals);
    if (first_error.ok()) first_error = t.error;
  }
  result_.wall_s = Seconds(start_, last);
  serving::SessionManager::Stats& d = result_.stats;
  d = stats1;
  d.hydrations -= stats0.hydrations;
  d.evictions -= stats0.evictions;
  d.completed -= stats0.completed;
  d.rejected -= stats0.rejected;
  d.store_errors -= stats0.store_errors;
  d.store_retries -= stats0.store_retries;
  d.degraded_hydrations -= stats0.degraded_hydrations;
  d.writebacks -= stats0.writebacks;
  d.clean_drops -= stats0.clean_drops;
  result_.failed += d.rejected;
  return first_error;
}

Status Window::TearDown() {
  const Clock::time_point t0 = Clock::now();
  manager_.reset();  // Drains, then checkpoints every dirty resident.
  result_.teardown_s = Seconds(t0, Clock::now());
  result_.stored_sessions = store_->SessionIds().size();
  store_.reset();
  result_.disk_bytes = DirBytes(store_dir_);
  if (traced_) {
    TOPKPKG_ASSIGN_OR_RETURN(result_.spans, ProfileTraceFile(trace_path_));
  }
  return Status::OK();
}


// Re-runs one tracked session's first `prefix` requests on an
// always-resident bare PackageRecommender with the same options, seed,
// user and request sequence; every reply must match.
Status Window::Replay(std::size_t slot) const {
  const std::size_t idx = TrackedSession(slot);
  std::unique_ptr<recsys::PackageRecommender> rec;
  if (spec_.kind == WorkloadKind::kFleetChurn) {
    TOPKPKG_ASSIGN_OR_RETURN(rec, NewTemplate(idx % kTemplates));
  } else if (spec_.kind == WorkloadKind::kNoisyLong) {
    bool heavy = false;
    TOPKPKG_ASSIGN_OR_RETURN(rec, WarmUp(idx, &heavy));
  } else {
    TOPKPKG_ASSIGN_OR_RETURN(
        rec, recsys::PackageRecommender::Create(
                 catalog_->evaluator.get(), catalog_->prior.get(),
                 RecommenderFor(spec_), SessionSeed(opts_.seed, idx)));
  }
  const recsys::SimulatedUser user = UserOf(idx);
  const std::vector<Reply>& replies = tracked_[slot];
  for (std::size_t i = 0; i < spec_.replay_prefix; ++i) {
    const Reply& want = replies[i];
    bool same = false;
    if (want.feedback) {
      TOPKPKG_ASSIGN_OR_RETURN(recsys::RoundLog log, rec->RunRound(user));
      same = log.top_k == want.top_k && log.clicked == want.clicked;
    } else {
      same = rec->current_top_k() == want.top_k;
    }
    if (!same) {
      return Status::Internal("replay mismatch: session " +
                              std::to_string(idx + 1) + " request " +
                              std::to_string(i));
    }
  }
  return Status::OK();
}

Status Window::Check() {
  for (std::size_t slot = 0; slot < tracked_.size(); ++slot) {
    if (tracked_[slot].size() < spec_.prefix) {
      return Status::FailedPrecondition(
          "tracked session " + std::to_string(TrackedSession(slot) + 1) +
          " completed " + std::to_string(tracked_[slot].size()) + " of " +
          std::to_string(spec_.prefix) +
          " checked requests; the window is too short");
    }
  }
  Digest digest;
  double quality = 0.0;
  for (std::size_t slot = 0; slot < tracked_.size(); ++slot) {
    for (std::size_t i = 0; i < spec_.prefix; ++i) {
      const Reply& r = tracked_[slot][i];
      digest.Add(r.feedback);
      digest.Add(r.clicked);
      for (const model::Package& p : r.top_k) {
        digest.Add(p.size());
        for (model::ItemId id : p.items()) digest.Add(id);
      }
    }
    // The top-1 of cold_start's final read, and of each of noisy_long's.
    if (spec_.kind == WorkloadKind::kFleetChurn) continue;
    const recsys::SimulatedUser user = UserOf(TrackedSession(slot));
    double sum = 0.0;
    std::size_t reads = 0;
    for (std::size_t i = 0; i < spec_.prefix; ++i) {
      const Reply& r = tracked_[slot][i];
      if (r.feedback || (spec_.kind == WorkloadKind::kColdStart &&
                         i + 1 != spec_.prefix)) {
        continue;
      }
      TOPKPKG_ASSIGN_OR_RETURN(double q,
                               QualityRatio(*catalog_, user, r.top_k[0]));
      sum += q;
      ++reads;
    }
    quality += reads > 0 ? sum / static_cast<double>(reads) : 0.0;
  }
  result_.digest = digest.Hex();
  result_.quality = spec_.kind == WorkloadKind::kFleetChurn
                        ? template_quality_
                        : quality / static_cast<double>(tracked_.size());

  return ForEachParallel(std::min(spec_.replayed, tracked_.size()),
                         opts_.clients,
                         [this](std::size_t slot) { return Replay(slot); });
}

}  // namespace

void RoundTotals::Add(const RoundTotals& o) {
  proposed += o.proposed;
  accepted += o.accepted;
  constraint_checks += o.constraint_checks;
  resampled += o.resampled;
  cache_hits += o.cache_hits;
  deduped += o.deduped;
  unique_searches += o.unique_searches;
}

Result<WorkloadSpec> SpecFor(const RunOptions& opts) {
  WorkloadSpec s;
  const bool tiny = opts.tiny;
  if (opts.workload == "cold_start") {
    s.kind = WorkloadKind::kColdStart;
    s.name = "cold_start";
    s.tracked = tiny ? 4 : 64;
    s.prefix = 2 * kColdRounds;  // Every Feedback and GetTopK.
    s.replay_prefix = s.prefix;
    s.replayed = tiny ? 2 : 4;
    s.setups = 21;  // Each takes about 2 ms.
    s.feedback_tail_cap = 0.95;
    s.topk_tail_cap = 0.90;
  } else if (opts.workload == "noisy_long") {
    s.kind = WorkloadKind::kNoisyLong;
    s.name = "noisy_long";
    s.user_psi = 0.9;
    s.tracked = tiny ? 2 : kNoisySessions;
    s.prefix = tiny ? 4 : 24;
    s.replay_prefix = tiny ? 2 : 8;
    s.replayed = tiny ? 1 : 2;
    s.setups = 3;
    s.feedback_tail_cap = 0.90;
    s.topk_tail_cap = 0.90;
  } else if (opts.workload == "fleet_churn") {
    s.kind = WorkloadKind::kFleetChurn;
    s.name = "fleet_churn";
    s.fleet = tiny ? 256 : 5120;
    s.setups = 3;
    s.tracked = 2 * std::max<std::size_t>(1, opts.clients);
    s.prefix = tiny ? 2 : 8;
    s.replay_prefix = s.prefix;
    s.replayed = s.tracked;
    s.feedback_tail_cap = 0.99;
    s.topk_tail_cap = 0.90;
  } else {
    return Status::InvalidArgument("unknown workload '" + opts.workload +
                                   "' (cold_start, noisy_long, fleet_churn)");
  }
  return s;
}

Result<WindowResult> RunWindow(const RunOptions& opts, bool traced) {
  TOPKPKG_ASSIGN_OR_RETURN(WorkloadSpec spec, SpecFor(opts));
  Window w(opts, spec, traced);
  TOPKPKG_RETURN_IF_ERROR(w.SetUp());
  TOPKPKG_RETURN_IF_ERROR(w.Drive());
  TOPKPKG_RETURN_IF_ERROR(w.TearDown());
  TOPKPKG_RETURN_IF_ERROR(w.Check());
  return std::move(w.result());
}

Result<double> TimeSetup(const RunOptions& opts) {
  TOPKPKG_ASSIGN_OR_RETURN(WorkloadSpec spec, SpecFor(opts));
  Window w(opts, spec, /*traced=*/false);
  TOPKPKG_RETURN_IF_ERROR(w.SetUp());
  return w.result().setup_s;
}

Result<std::string> ScriptDigest(const RunOptions& opts) {
  TOPKPKG_ASSIGN_OR_RETURN(WorkloadSpec spec, SpecFor(opts));
  TOPKPKG_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog, BuildCatalog());
  Digest d;
  auto add_user = [&d](const recsys::SimulatedUser& u) {
    for (double v : u.hidden_weights()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      d.Add(bits);
    }
  };
  // Users and recommender seeds of the first sessions (fleet_churn: its
  // templates; noisy_long: its first candidates).
  const std::size_t sessions = spec.kind == WorkloadKind::kFleetChurn
                                   ? kTemplates
                                   : spec.tracked;
  for (std::size_t idx = 0; idx < sessions; ++idx) {
    add_user(UserFor(*catalog, spec, opts.seed, idx));
    d.Add(spec.kind == WorkloadKind::kFleetChurn
              ? Mix(opts.seed, kTemplateSeedStream, idx)
              : SessionSeed(opts.seed, idx));
  }
  if (spec.kind == WorkloadKind::kFleetChurn) {
    for (std::size_t c = 0; c < opts.clients; ++c) {
      const std::vector<std::size_t> part =
          Partition(opts.seed, spec.fleet, opts.clients, c);
      FleetPicker picker(opts.seed, c, part.size());
      for (int i = 0; i < 256; ++i) {
        const FleetPicker::Pick p = picker.Next();
        d.Add(part[p.rank]);
        d.Add(p.read);
      }
    }
  }
  return d.Hex();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
