// Tests for CSV trace reading/writing and its TraceModel round trip.
#include <gtest/gtest.h>

#include <sstream>

#include "load/misc_models.hpp"
#include "load/onoff.hpp"
#include "load/trace_io.hpp"
#include "platform/host.hpp"
#include "simcore/simulator.hpp"

namespace load = simsweep::load;
namespace sim = simsweep::sim;
namespace pf = simsweep::platform;

TEST(TraceIo, ParsesWithHeader) {
  std::istringstream in("time,cpu_load\n0,0\n10.5,1\n20,2\n");
  const auto trace = load::read_trace_csv(in);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace[1].time, 10.5);
  EXPECT_DOUBLE_EQ(trace[2].value, 2.0);
}

TEST(TraceIo, ParsesWithoutHeaderAndBlankLines) {
  std::istringstream in("0,1\n\n5,0\n");
  const auto trace = load::read_trace_csv(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[0].value, 1.0);
}

TEST(TraceIo, CollapsesStepEdgeDuplicates) {
  // The trace/fig binaries emit both edges of each step at the same time;
  // reading that back keeps the post-edge value.
  std::istringstream in("0,0\n10,0\n10,1\n20,1\n20,0\n");
  const auto trace = load::read_trace_csv(in);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace[1].time, 10.0);
  EXPECT_DOUBLE_EQ(trace[1].value, 1.0);
  EXPECT_DOUBLE_EQ(trace[2].value, 0.0);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::istringstream no_comma("0 1\n");
  EXPECT_THROW((void)load::read_trace_csv(no_comma), std::invalid_argument);
  std::istringstream bad_number("0,zero\n1,1\n");
  EXPECT_THROW((void)load::read_trace_csv(bad_number), std::invalid_argument);
  std::istringstream backwards("5,1\n2,0\n");
  EXPECT_THROW((void)load::read_trace_csv(backwards), std::invalid_argument);
  std::istringstream negative("0,-1\n");
  EXPECT_THROW((void)load::read_trace_csv(negative), std::invalid_argument);
  std::istringstream empty("time,cpu_load\n");
  EXPECT_THROW((void)load::read_trace_csv(empty), std::invalid_argument);
  EXPECT_THROW((void)load::read_trace_file("/nonexistent/trace.csv"),
               std::runtime_error);
}

TEST(TraceIo, RejectsNonFiniteValues) {
  // strtod happily parses "nan" and "inf"; the reader must not.
  std::istringstream nan_load("0,nan\n");
  EXPECT_THROW((void)load::read_trace_csv(nan_load), std::invalid_argument);
  std::istringstream inf_load("0,inf\n");
  EXPECT_THROW((void)load::read_trace_csv(inf_load), std::invalid_argument);
  std::istringstream nan_time("nan,1\n2,1\n");
  // Line 1 with a non-numeric time is treated as a header; on any other
  // line it is an error.
  EXPECT_NO_THROW((void)load::read_trace_csv(nan_time));
  std::istringstream nan_time_later("0,1\ninf,2\n");
  EXPECT_THROW((void)load::read_trace_csv(nan_time_later),
               std::invalid_argument);
}

TEST(TraceIo, ErrorMessagesCarryLineNumbers) {
  std::istringstream bad("0,1\n5,oops\n");
  try {
    (void)load::read_trace_csv(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TraceIo, WriteReadRoundTrip) {
  const std::vector<sim::Sample> trace{{0.0, 0.0}, {12.25, 2.0}, {100.0, 1.0}};
  std::stringstream buffer;
  load::write_trace_csv(buffer, trace);
  const auto back = load::read_trace_csv(buffer);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].time, trace[i].time);
    EXPECT_DOUBLE_EQ(back[i].value, trace[i].value);
  }
}

TEST(TraceIo, SingleHostTraceAtTinyDynamismRecordsNoChange) {
  // At dynamism 1e-20 a state lasts about 1e20 steps of 100 s; a sojourn
  // drawn as one step would flip the load every 100 s.
  const load::OnOffModel model(load::OnOffParams::dynamism(1e-20));
  for (const sim::Sample& sample : load::trace_single_host(model, 1, 2000.0))
    EXPECT_EQ(sample.time, 0.0) << "load changed at " << sample.time << " s";
}

TEST(TraceIo, ParsedTraceDrivesTraceModel) {
  std::istringstream in("time,cpu_load\n0,0\n50,3\n");
  load::TraceModel model(load::read_trace_csv(in), /*period=*/100.0,
                         /*random_phase=*/false);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  auto src = model.make_source(1);
  src->start(s, h);
  s.run_until(90.0);
  EXPECT_DOUBLE_EQ(h.mean_availability(0.0, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(h.mean_availability(50.0, 90.0), 0.25);
}
