#include "workloads/tpcds.h"

#include "common/check.h"
#include "obs/trace.h"

namespace dyrs::wl {

std::vector<HiveQuery> tpcds_queries(double scale) {
  DYRS_CHECK(scale > 0);
  // Ten queries with HiveQL translations (the hive-testbench set). Table
  // sizes give the 2–26GB spread of Fig 4b; selectivities make the scan
  // stage dominate, as the paper measures (97% of runtime in maps).
  auto sized = [scale](double gb) { return static_cast<Bytes>(gib(gb) * scale); };
  std::vector<HiveQuery> qs;
  auto add = [&](const char* name, double gb, std::vector<QueryStage> stages) {
    HiveQuery q;
    q.name = name;
    q.table = std::string("/tpcds/") + name + "-table";
    q.table_size = sized(gb);
    q.stages = std::move(stages);
    qs.push_back(std::move(q));
  };
  add("q52", 2.0, {{0.05, 2}, {0.30, 1}});
  add("q55", 2.6, {{0.05, 2}, {0.30, 1}});
  add("q3", 3.4, {{0.06, 2}, {0.30, 1}});
  add("q43", 4.4, {{0.08, 2}, {0.25, 1}});
  // q15 sits mid-pack by input size; its scan dominates so completely that
  // the paper measures DYRS's best speedup (48%) on it.
  add("q15", 5.8, {{0.03, 4}, {0.25, 1}});
  add("q19", 7.6, {{0.06, 4}, {0.25, 2}});
  add("q89", 10.0, {{0.08, 4}, {0.20, 2}});
  add("q12", 13.0, {{0.05, 6}, {0.20, 2}});
  add("q7", 17.0, {{0.05, 6}, {0.20, 2}});
  add("q27", 22.0, {{0.04, 8}, {0.20, 2}});
  return qs;
}

QueryRunner::QueryRunner(exec::Testbed& testbed) : testbed_(testbed) {
  base_spec.platform_overhead = seconds(5);
}

void QueryRunner::ensure_table(const HiveQuery& query) {
  if (!testbed_.namenode().ns().exists(query.table)) {
    testbed_.load_file(query.table, query.table_size);
  }
}

void QueryRunner::run(const HiveQuery& query, std::function<void(const QueryResult&)> done) {
  DYRS_CHECK_MSG(!done_, "QueryRunner already has a query in flight");
  ensure_table(query);
  query_ = query;
  done_ = std::move(done);
  result_ = {};
  result_.name = query.name;
  result_.input_size = query.table_size;
  result_.submitted = testbed_.simulator().now();
  stage_input_ = query.table;
  stage_input_size_ = query.table_size;
  ++sequence_;

  // Route stage completions back here. One query at a time per testbed.
  // Move the continuation out before invoking it: it re-assigns
  // stage_done_ (next stage) from inside its own body.
  testbed_.engine().on_job_done = [this](const exec::JobRecord&) {
    auto continue_query = std::move(stage_done_);
    stage_done_ = nullptr;
    if (continue_query) continue_query();
  };
  current_stage_ = 0;
  submit_stage(0);
}

void QueryRunner::submit_stage(std::size_t index) {
  DYRS_CHECK(index < query_.stages.size());
  const QueryStage& stage = query_.stages[index];
  exec::JobSpec spec = base_spec;
  spec.name = query_.name + "-stage" + std::to_string(index);
  spec.input_files = {stage_input_};
  spec.selectivity = stage.selectivity;
  spec.num_reducers = stage.reducers;
  // Hive issues the migration right after compilation, for the table
  // inputs only; intermediate stage outputs are not migrated (§IV-B).
  spec.request_migration = index == 0;

  const Bytes out_bytes = std::max<Bytes>(
      mib(1), static_cast<Bytes>(static_cast<double>(stage_input_size_) * stage.selectivity));

  stage_done_ = [this, index, out_bytes]() {
    if (index + 1 == query_.stages.size()) {
      // NOTE: do not reset engine().on_job_done here — this code runs
      // inside that very callback; destroying it mid-execution is UB. The
      // next run() overwrites it, and a stale callback is harmless since
      // stage_done_ is null between queries.
      result_.finished = testbed_.simulator().now();
      auto done = std::move(done_);
      done_ = nullptr;
      done(result_);
      return;
    }
    // Materialize the intermediate output as a new file and feed it to the
    // next stage.
    stage_input_ = "/tpcds/" + query_.name + "-tmp" + std::to_string(sequence_) + "-" +
                   std::to_string(index);
    stage_input_size_ = out_bytes;
    testbed_.load_file(stage_input_, out_bytes);
    submit_stage(index + 1);
  };

  const SimTime now = testbed_.simulator().now();
  const SimTime submit_at = index == 0 ? now + query_.compile_time : now;
  JobId id;
  if (index == 0) {
    // Compile phase delays the first stage's submission.
    id = testbed_.submit_at(spec, submit_at);
  } else {
    id = testbed_.submit(spec);
  }
  const obs::ObsContext obs = testbed_.obs_context();
  if (obs.tracing()) {
    obs.emit(obs::TraceEvent(now, "wl_job")
                 .with("job", id.value())
                 .with("workload", "tpcds")
                 .with("name", spec.name)
                 .with("input", static_cast<std::int64_t>(stage_input_size_))
                 .with("reducers", stage.reducers)
                 .with("submit_at", static_cast<std::int64_t>(submit_at)));
  }
}

std::vector<QueryResult> QueryRunner::run_suite(exec::Testbed& testbed,
                                                const std::vector<HiveQuery>& queries,
                                                const exec::JobSpec& base) {
  std::vector<QueryResult> results;
  QueryRunner runner(testbed);
  runner.base_spec = base;
  std::function<void(std::size_t)> run_one = [&](std::size_t i) {
    if (i >= queries.size()) return;
    runner.run(queries[i], [&results, &run_one, i](const QueryResult& r) {
      results.push_back(r);
      run_one(i + 1);
    });
  };
  run_one(0);
  testbed.run();
  DYRS_CHECK_MSG(results.size() == queries.size(), "suite did not complete");
  return results;
}

}  // namespace dyrs::wl
