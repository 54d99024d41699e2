#include "obs/thread_buffer_sink.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/trace_reader.h"

namespace dyrs::obs {
namespace {

std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t> merge_key(
    const TraceEvent& e) {
  return {e.i64("block", -1), e.i64("lseq", 0), e.i64("tid", 0), e.i64("tseq", 0)};
}

TEST(ThreadLocalBufferSink, MergesConcurrentEmittersByKey) {
  ThreadLocalBufferSink sink;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&sink, t] {
        for (int i = 0; i < kPerThread; ++i) {
          TraceEvent e(i, "mig_transfer_start");
          // Two blocks interleaved from every thread; lifecycle rank 4.
          e.with("block", t % 2).with("lseq", 8 + 4).with("tid", t + 1).with("tseq", i);
          sink.emit(e);
        }
      });
    }
  }  // join
  EXPECT_EQ(sink.thread_count(), static_cast<std::size_t>(kThreads));
  ASSERT_EQ(sink.event_count(), static_cast<std::size_t>(kThreads * kPerThread));

  const std::vector<TraceEvent> merged = sink.merge_thread_buffers();
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merge_key(merged[i - 1]), merge_key(merged[i])) << "at index " << i;
  }
}

TEST(ThreadLocalBufferSink, BlocklessEventsSortFirst) {
  ThreadLocalBufferSink sink;
  TraceEvent a(5, "mig_enqueue");
  a.with("block", 3).with("lseq", 9).with("tid", 0).with("tseq", 1);
  sink.emit(a);
  TraceEvent b(9, "master_failover");
  b.with("tid", 0).with("tseq", 2);
  sink.emit(b);

  const auto merged = sink.merge_thread_buffers();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].type, "master_failover");  // block fallback -1 sorts first
  EXPECT_EQ(merged[1].type, "mig_enqueue");
}

TEST(ThreadLocalBufferSink, LaterCyclesSortAfterEarlierOnes) {
  // A block migrated twice: cycle 1's terminal (lseq 1*8+6) must precede
  // cycle 2's enqueue (lseq 2*8+1) no matter the emission order.
  ThreadLocalBufferSink sink;
  TraceEvent second(50, "mig_enqueue");
  second.with("block", 7).with("lseq", 2 * 8 + 1).with("tid", 0).with("tseq", 9);
  sink.emit(second);
  TraceEvent first(40, "mig_complete");
  first.with("block", 7).with("node", 1).with("lseq", 1 * 8 + 6).with("tid", 2).with("tseq", 3);
  sink.emit(first);

  const auto merged = sink.merge_thread_buffers();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].type, "mig_complete");
  EXPECT_EQ(merged[1].type, "mig_enqueue");
}

TEST(ThreadLocalBufferSink, SortIsStableWithinEqualKeys) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 3; ++i) {
    TraceEvent e(i, "sample");
    std::string name = "p";
    name += std::to_string(i);
    e.with("name", name);  // no merge-key fields: all equal
    events.push_back(e);
  }
  sort_by_merge_key(events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].str("name"), "p0");
  EXPECT_EQ(events[1].str("name"), "p1");
  EXPECT_EQ(events[2].str("name"), "p2");
}

TEST(ThreadLocalBufferSink, WriteJsonlRoundTrips) {
  ThreadLocalBufferSink sink;
  for (int i = 0; i < 5; ++i) {
    TraceEvent e(i * 100, "mig_enqueue");
    e.with("block", 4 - i).with("size", 1024).with("lseq", 9).with("tid", 0).with("tseq", i);
    sink.emit(e);
  }
  const std::string path = ::testing::TempDir() + "/tbs_roundtrip.jsonl";
  sink.write_jsonl(path);

  TraceReader reader(read_jsonl_file(path));
  const auto merged = sink.merge_thread_buffers();
  ASSERT_EQ(reader.events().size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(reader.events()[i].type, merged[i].type);
    EXPECT_EQ(reader.events()[i].at, merged[i].at);
    EXPECT_EQ(reader.events()[i].i64("block"), merged[i].i64("block"));
  }
  // The file is in canonical order: block ascending here.
  EXPECT_EQ(reader.events().front().i64("block"), 0);
  EXPECT_EQ(reader.events().back().i64("block"), 4);
}

}  // namespace
}  // namespace dyrs::obs
