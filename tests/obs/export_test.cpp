#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace bft::obs {
namespace {

TEST(JsonNumberTest, IntegersStayIntegral) {
  EXPECT_EQ(json_number(0), "0");
  EXPECT_EQ(json_number(42), "42");
  EXPECT_EQ(json_number(-7), "-7");
  EXPECT_EQ(json_number(2.5), "2.5");
  EXPECT_EQ(json_number(1e15), "1e+15");  // past the integral passthrough
  EXPECT_EQ(json_number(std::nan("")), "0");
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab\rcr"), "line\\nbreak\\ttab\\rcr");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

// The golden export: one instrument of each kind plus a two-event trace.
// Byte-exact — the exporter promises deterministic output (sorted keys, fixed
// number formatting), which is what makes sim runs diffable across machines.
TEST(ExportTest, GoldenDocument) {
  MetricsRegistry registry;
  registry.counter("a.count", "events").add(3);
  registry.gauge("b.gauge").set(-7);
  LatencyHistogram& h = registry.histogram("c.ns", "ns", "latency");
  for (std::int64_t v = 1; v <= 4; ++v) h.record(v);

  TraceRing trace(16);
  trace.record(TraceStage::kSubmit, /*at=*/100, /*node=*/0, /*client=*/1,
               /*seq=*/1);
  trace.record(TraceStage::kPropose, /*at=*/150, /*node=*/0, /*client=*/1,
               /*seq=*/1);

  const std::string json = to_json(registry, &trace,
                                   {{"bench", "unit"}, {"quote", "a\"b"}},
                                   {{"tps", 12345.5}});

  // The 50 ns submit->propose delta lands in bucket [50, 52) whose midpoint
  // 51 ns lies above the only sample, so the quantiles clamp to max_ms.
  const std::string expected =
      "{\"labels\":{\"bench\":\"unit\",\"quote\":\"a\\\"b\"},"
      "\"run\":{\"tps\":12345.5},"
      "\"counters\":{\"a.count\":3},"
      "\"gauges\":{\"b.gauge\":-7},"
      "\"histograms\":{\"c.ns\":{\"unit\":\"ns\",\"count\":4,\"p50\":2,"
      "\"p95\":4,\"p99\":4,\"max\":4,\"mean\":2.5}},"
      "\"trace\":{\"recorded\":2,\"dropped\":0,"
      "\"stages\":{\"submit_to_propose\":{\"count\":1,\"p50_ms\":5e-05,"
      "\"p95_ms\":5e-05,\"p99_ms\":5e-05,\"max_ms\":5e-05,"
      "\"mean_ms\":5e-05}}}}";
  EXPECT_EQ(json, expected);
}

TEST(ExportTest, NullTraceOmitsTraceSection) {
  MetricsRegistry registry;
  registry.counter("a.count");
  const std::string json = to_json(registry, nullptr);
  EXPECT_EQ(json.find("\"trace\""), std::string::npos);
  EXPECT_EQ(json,
            "{\"labels\":{},\"run\":{},\"counters\":{\"a.count\":0},"
            "\"gauges\":{},\"histograms\":{}}");
}

TEST(ExportTest, SameInputsSameBytes) {
  const auto build = [] {
    MetricsRegistry registry;
    registry.counter("z.last").add(1);
    registry.counter("a.first").add(2);
    registry.gauge("m.mid").set(5);
    return to_json(registry, nullptr, {{"seed", "7"}}, {{"x", 0.25}});
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace bft::obs
