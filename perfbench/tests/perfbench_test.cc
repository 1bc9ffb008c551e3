// Tests of the benchmark's own code: the seeded generator, the reference
// model against the real runtime, the metric names, and the self-time
// computation. Build and run from the benchmark's package:
//   cmake -S perfbench -B build-perfbench
//   cmake --build build-perfbench --target perfbench_test
//   build-perfbench/perfbench_test
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "common.h"
#include "core/runtime.h"
#include "net/topologies.h"

namespace perfbench {
namespace {

TEST(Generator, SameSeedSameSentencesAndSchedule) {
  SentenceGenerator a(7), b(7), c(8);
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    EXPECT_EQ(x.size(), kWordsPerSentence);
    differs = differs || x != c.next();
  }
  EXPECT_TRUE(differs);

  const auto s1 = poisson_schedule(7, 500, 2.0, 3);
  const auto s2 = poisson_schedule(7, 500, 2.0, 3);
  const auto s3 = poisson_schedule(8, 500, 2.0, 3);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].due_ns, s2[i].due_ns);
    EXPECT_EQ(s1[i].stream, s2[i].stream);
    EXPECT_LT(s1[i].stream, 3u);
    if (i > 0) {
      EXPECT_GE(s1[i].due_ns, s1[i - 1].due_ns);
    }
  }
  EXPECT_FALSE(s1.size() == s3.size() && s1.back().due_ns == s3.back().due_ns);
  // 1000 expected arrivals; Poisson spread is about 32.
  EXPECT_NEAR(static_cast<double>(s1.size()), 1000.0, 150.0);
}

TEST(Generator, ZipfSkewFavoursLowRanks) {
  SentenceGenerator gen(3);
  const auto& vocab = SentenceGenerator::vocabulary();
  ASSERT_EQ(vocab.size(), kVocabulary);
  EXPECT_EQ(std::set<std::string>(vocab.begin(), vocab.end()).size(),
            kVocabulary);
  std::size_t top = 0, total = 0;
  for (int i = 0; i < 2000; ++i) {
    for (const auto& w : gen.next()) {
      top += w == vocab[0];
      ++total;
    }
  }
  // Rank 1 of a 10k-word Zipf(1) vocabulary has probability ~1/9.8.
  EXPECT_NEAR(static_cast<double>(top) / static_cast<double>(total), 0.102,
              0.02);
}

TEST(ReferenceModel, AgreesWithRuntimeOnSeededInput) {
  auto built = tart::net::build_topology("wordcount", {{"senders", "2"}});
  const tart::WireId in[2] = {built.inputs.at("sender1"),
                              built.inputs.at("sender2")};
  const tart::WireId out = built.outputs.at("total");
  tart::core::Runtime rt(
      built.topology,
      {{built.components.at("sender1"), tart::EngineId(0)},
       {built.components.at("sender2"), tart::EngineId(0)},
       {built.components.at("merger"), tart::EngineId(1)}},
      tart::core::RuntimeConfig{});
  rt.start();
  SentenceGenerator gen(42);
  Rng pick(42);
  ReferenceModel model(2);
  std::vector<std::vector<std::int64_t>> ref(2);
  std::int64_t vt = 0;
  for (int i = 0; i < 300; ++i) {
    const auto words = gen.next();
    const auto s = static_cast<std::size_t>(pick.below(2));
    vt += 1000;
    rt.inject_at(in[s], tart::VirtualTime(vt), tart::Payload(words));
    ref[s].push_back(model.count(s, words));
  }
  ASSERT_TRUE(rt.drain(std::chrono::seconds(30)));
  std::vector<ObservedOutput> observed;
  for (const auto& r : rt.output_records(out)) {
    ObservedOutput o;
    o.vt = r.vt.ticks();
    o.stutter = r.stutter;
    o.has_origin = r.origin_wire.is_valid();
    o.origin_wire = r.origin_wire.value();
    o.origin_seq = r.origin_seq;
    o.total = r.payload.as_int();
    observed.push_back(o);
  }
  rt.stop();
  const std::vector<std::uint32_t> wires = {in[0].value(), in[1].value()};
  std::vector<std::string> problems;
  EXPECT_EQ(check_outputs(wires, ref, observed, &problems), 0u)
      << (problems.empty() ? "" : problems.front());

  // The checker is not vacuous: a wrong total, a duplicate and a missing
  // output are each caught.
  auto wrong = observed;
  wrong.back().total += 1;
  EXPECT_GT(check_outputs(wires, ref, wrong, &problems), 0u);
  auto dup = observed;
  dup.push_back(dup.back());
  dup.back().vt += 1;
  EXPECT_GT(check_outputs(wires, ref, dup, &problems), 0u);
  auto missing = observed;
  missing.pop_back();
  EXPECT_GT(check_outputs(wires, ref, missing, &problems), 0u);
}

TEST(Metrics, NamesAreWellFormedUniqueAndMatchTheContract) {
  std::ifstream f(PERFBENCH_CONTRACT);
  ASSERT_TRUE(f.good()) << PERFBENCH_CONTRACT;
  std::stringstream contract;
  contract << f.rdbuf();
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      const std::string text = contract.str();
      const auto at = text.find(std::string("\"name\": \"") + m.name + "\"");
      ASSERT_NE(at, std::string::npos) << m.name << " is not in BENCHMARK.json";
      const std::string entry = text.substr(at, text.find('}', at) - at);
      EXPECT_NE(entry.find(std::string("\"unit\": \"") + m.unit + "\""),
                std::string::npos)
          << m.name << " has another unit than " << m.unit << " in BENCHMARK.json";
    }
  }
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name(""));
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100) bench; a [10,40) core; b [30,60) gateway overlaps a;
  // c [15,20) log under a; d [90,120) core under root, clipped to 100.
  std::vector<Span> spans = {
      {1, 0, "root", "bench", 0, 100, 0, 0},
      {2, 1, "a", "core", 10, 40, 0, 0},
      {3, 1, "b", "gateway", 30, 60, 0, 0},
      {4, 2, "c", "log", 15, 20, 0, 0},
      {5, 1, "d", "core", 90, 120, 0, 0},
  };
  const auto self = self_time_by_layer(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 100 - (60 - 10) - (100 - 90));
  EXPECT_DOUBLE_EQ(self.at("core"), (30 - 5) + 30);
  EXPECT_DOUBLE_EQ(self.at("gateway"), 30);
  EXPECT_DOUBLE_EQ(self.at("log"), 5);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 50), 2);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5);
  // Median of the per-chunk medians: one chunk of outliers does not move it.
  EXPECT_DOUBLE_EQ(chunked_percentile({1, 1, 1, 2, 2, 2, 50, 50, 50}, 3, 50), 2);
  EXPECT_DOUBLE_EQ(chunked_percentile({4, 1, 3}, 10, 50), 3);
}

}  // namespace
}  // namespace perfbench
