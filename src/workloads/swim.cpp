#include "workloads/swim.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/trace.h"

namespace dyrs::wl {

SwimWorkload SwimWorkload::generate(const SwimConfig& config) {
  DYRS_CHECK(config.num_jobs > 0);
  DYRS_CHECK(config.total_input > config.max_input);
  SwimWorkload wl;
  wl.config_ = config;
  Rng rng(config.seed);

  // The trace's published shape (§V-B2 and Fig 5): 85% of jobs read under
  // 64MB; the rest split into medium jobs (64MB-1GB) and a few large jobs
  // (up to 24GB) that carry most of the data. Draw the three bins
  // explicitly, then rescale only the large bin to hit the cumulative
  // total, so the medium bin's membership survives calibration.
  const Bytes medium_threshold = gib(1);
  std::vector<Bytes> sizes(static_cast<std::size_t>(config.num_jobs));
  enum class Bin { Small, Medium, Large };
  std::vector<Bin> bins(sizes.size());
  auto log_uniform = [&rng](Bytes lo, Bytes hi) {
    const double v = std::exp(rng.uniform(std::log(static_cast<double>(lo)),
                                          std::log(static_cast<double>(hi))));
    return static_cast<Bytes>(v);
  };
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double u = rng.uniform();
    if (u < config.small_job_fraction) {
      bins[i] = Bin::Small;
      sizes[i] = rng.uniform_int(mib(4), config.small_threshold - 1);
    } else if (u < config.small_job_fraction + (1.0 - config.small_job_fraction) * 0.6) {
      bins[i] = Bin::Medium;
      sizes[i] = log_uniform(config.small_threshold, medium_threshold - 1);
    } else {
      bins[i] = Bin::Large;
      sizes[i] = log_uniform(medium_threshold, config.max_input);
    }
  }
  DYRS_CHECK_MSG(std::count(bins.begin(), bins.end(), Bin::Large) > 0,
                 "workload drew no large jobs; use another seed");
  // Rescale the large bin so the cumulative input hits the target.
  // Clamping to [1GB, max_input] sheds mass, so iterate.
  for (int pass = 0; pass < 8; ++pass) {
    Bytes current = 0;
    double scalable = 0.0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      current += sizes[i];
      if (bins[i] == Bin::Large && sizes[i] < config.max_input) {
        scalable += static_cast<double>(sizes[i]);
      }
    }
    const Bytes deficit = config.total_input - current;
    if (std::abs(static_cast<double>(deficit)) < static_cast<double>(gib(1)) ||
        scalable <= 0) {
      break;
    }
    const double scale = 1.0 + static_cast<double>(deficit) / scalable;
    if (scale <= 0) break;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (bins[i] != Bin::Large || sizes[i] >= config.max_input) continue;
      sizes[i] = std::clamp<Bytes>(
          static_cast<Bytes>(static_cast<double>(sizes[i]) * scale), medium_threshold,
          config.max_input);
    }
  }
  // Pin the largest job at max_input, matching the trace's 24GB giant.
  std::size_t max_idx = 0;
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    if (sizes[i] > sizes[max_idx]) max_idx = i;
  }
  sizes[max_idx] = config.max_input;

  SimTime submit = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SwimJob job;
    job.name = "swim-" + std::to_string(i);
    job.file = "/swim/input-" + std::to_string(i);
    job.input = sizes[i];
    // Shuffle/output follow the trace's pattern: many jobs are map-only
    // (aggressive filtering), the rest shuffle a fraction of their input.
    if (rng.uniform() < 0.4) {
      job.shuffle = 0;
      job.output = static_cast<Bytes>(static_cast<double>(job.input) *
                                      rng.uniform(0.01, 0.1));
      job.reducers = 0;
    } else {
      job.shuffle = static_cast<Bytes>(static_cast<double>(job.input) *
                                       rng.uniform(0.05, 0.7));
      job.output = static_cast<Bytes>(static_cast<double>(job.shuffle) *
                                      rng.uniform(0.2, 1.0));
      job.reducers = std::clamp<int>(
          static_cast<int>(job.shuffle / mib(512)) + 1, 1, 14);
    }
    job.submit_at = submit;
    submit += seconds(rng.exponential(config.mean_interarrival_s) *
                      config.interarrival_scale);
    wl.jobs_.push_back(std::move(job));
  }
  return wl;
}

Bytes SwimWorkload::total_input() const {
  Bytes sum = 0;
  for (const auto& job : jobs_) sum += job.input;
  return sum;
}

SimTime SwimWorkload::last_submission() const {
  SimTime last = 0;
  for (const auto& job : jobs_) last = std::max(last, job.submit_at);
  return last;
}

std::vector<JobId> SwimWorkload::install(exec::Testbed& testbed, const exec::JobSpec& base,
                                         SimTime offset) const {
  const obs::ObsContext obs = testbed.obs_context();
  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    testbed.load_file(job.file, job.input);
    exec::JobSpec spec = base;
    spec.name = job.name;
    spec.input_files = {job.file};
    spec.shuffle_bytes = job.shuffle;
    spec.output_bytes = job.output;
    spec.num_reducers = job.reducers;
    const JobId id = testbed.submit_at(std::move(spec), job.submit_at + offset);
    ids.push_back(id);
    if (obs.tracing()) {
      // Stamped at install time (not the future submit_at) so the trace
      // stays time-ordered; the scheduled time rides along as a field.
      obs.emit(obs::TraceEvent(testbed.simulator().now(), "wl_job")
                   .with("job", id.value())
                   .with("workload", "swim")
                   .with("name", job.name)
                   .with("input", static_cast<std::int64_t>(job.input))
                   .with("shuffle", static_cast<std::int64_t>(job.shuffle))
                   .with("reducers", job.reducers)
                   .with("submit_at", static_cast<std::int64_t>(job.submit_at + offset)));
    }
  }
  return ids;
}

SwimWorkload::SizeBin SwimWorkload::bin_of(Bytes input) {
  if (input < mib(64)) return SizeBin::Small;
  if (input < gib(1)) return SizeBin::Medium;
  return SizeBin::Large;
}

const char* SwimWorkload::bin_name(SizeBin bin) {
  switch (bin) {
    case SizeBin::Small: return "small (<64MB)";
    case SizeBin::Medium: return "medium (<1GB)";
    case SizeBin::Large: return "large (>=1GB)";
  }
  return "?";
}

}  // namespace dyrs::wl
