// Tests for the measurement substrate: statistics, ticks, kernel-call
// descriptors (parse/format/validate/flops/shapes/dispatch), locality
// control, and the Sampler itself.

#include <gtest/gtest.h>

#include <thread>

#include "algorithms/sylv.hpp"
#include "common/threadpool.hpp"
#include "algorithms/trinv.hpp"
#include "blas/registry.hpp"
#include "common/matrix_util.hpp"
#include "sampler/calls.hpp"
#include "sampler/locality.hpp"
#include "sampler/machine.hpp"
#include "sampler/sampler.hpp"
#include "sampler/stats.hpp"
#include "sampler/ticks.hpp"

namespace dlap {
namespace {

// ------------------------------------------------------------------ stats

TEST(Stats, SummarizeComputesAllQuantities) {
  const SampleStats s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);  // even count: midpoint
  EXPECT_NEAR(s.stddev, 1.2909944487358056, 1e-12);
  EXPECT_EQ(s.count, 4);
}

TEST(Stats, OddCountMedianIsMiddleElement) {
  EXPECT_DOUBLE_EQ(summarize({5.0, 1.0, 3.0}).median, 3.0);
}

TEST(Stats, SingleSampleHasZeroStddev) {
  const SampleStats s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW((void)summarize({}), invalid_argument_error);
}

TEST(Stats, GetSetRoundTrip) {
  SampleStats s;
  for (int i = 0; i < kStatCount; ++i) {
    s.set(static_cast<Stat>(i), 1.0 + i);
  }
  for (int i = 0; i < kStatCount; ++i) {
    EXPECT_DOUBLE_EQ(s.get(static_cast<Stat>(i)), 1.0 + i);
  }
}

TEST(Stats, StatNamesRoundTrip) {
  for (int i = 0; i < kStatCount; ++i) {
    const Stat s = static_cast<Stat>(i);
    EXPECT_EQ(stat_from_name(stat_name(s)), s);
  }
  EXPECT_THROW((void)stat_from_name("p99"), parse_error);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_THROW((void)quantile(v, 1.5), invalid_argument_error);
}

// ------------------------------------------------------------------ ticks

TEST(Ticks, MonotonicallyNonDecreasing) {
  std::uint64_t prev = read_ticks();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = read_ticks();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Ticks, RateIsPlausible) {
  // Any machine this runs on has a clock between 100 MHz and 10 GHz.
  const double rate = ticks_per_second();
  EXPECT_GT(rate, 1e8);
  EXPECT_LT(rate, 1e10);
}

TEST(Ticks, MeasuresElapsedTime) {
  const std::uint64_t t0 = read_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t t1 = read_ticks();
  const double seconds = static_cast<double>(t1 - t0) / ticks_per_second();
  EXPECT_GT(seconds, 0.003);
  EXPECT_LT(seconds, 1.0);
}

// ------------------------------------------------------------------ calls

TEST(Calls, RoutineNamesRoundTrip) {
  for (int i = 0; i < kRoutineCount; ++i) {
    const RoutineId id = static_cast<RoutineId>(i);
    EXPECT_EQ(routine_from_name(routine_name(id)), id);
  }
  EXPECT_THROW((void)routine_from_name("dgetrf"), lookup_error);
}

TEST(Calls, ParsesThePaperExample) {
  // The exact tuple from paper Section II-B.
  const KernelCall c =
      parse_call("dtrsm(R,L,N,U,512,128,0.37,A,256,B,512)");
  EXPECT_EQ(c.routine, RoutineId::Trsm);
  EXPECT_EQ(c.flag_key(), "RLNU");
  EXPECT_EQ(c.sizes, (std::vector<index_t>{512, 128}));
  EXPECT_DOUBLE_EQ(c.scalars.at(0), 0.37);
  EXPECT_EQ(c.leads, (std::vector<index_t>{256, 512}));
}

TEST(Calls, FormatParseRoundTrip) {
  const char* examples[] = {
      "dgemm(N,T,64,32,16,1,A,64,B,32,0.5,C,64)",
      "dtrsm(L,L,N,N,100,200,-1,A,250,B,250)",
      "dtrmm(R,U,T,U,8,8,1,A,2500,B,2500)",
      "dsyrk(L,N,48,24,1,A,48,0,B,48)",
      "dsymm(L,U,32,16,1,A,32,B,32,1,C,32)",
      "dsyr2k(U,T,24,12,1,A,12,B,12,1,C,24)",
      "trinv1_unb(96,A,250)",
      "trinv4_unb(50,A,250)",
      "sylv_unb(96,96,A,96,B,96,C,96)",
  };
  for (const char* text : examples) {
    const KernelCall c = parse_call(text);
    EXPECT_EQ(format_call(c), text) << text;
  }
}

TEST(Calls, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_call("dtrsm"), parse_error);
  EXPECT_THROW(parse_call("dtrsm(R,L,N,U)"), parse_error);  // too few args
  EXPECT_THROW(parse_call("nosuch(1,2)"), lookup_error);
  EXPECT_THROW(parse_call("dtrsm(RR,L,N,U,8,8,1,A,8,B,8)"), parse_error);
  EXPECT_THROW(parse_call("dtrsm(R,L,N,U,x,8,1,A,8,B,8)"), parse_error);
}

TEST(Calls, ValidateChecksLeadingDimensions) {
  KernelCall c = parse_call("dgemm(N,N,64,32,16,1,A,64,B,16,1,C,64)");
  EXPECT_NO_THROW(validate_call(c));
  c.leads[0] = 32;  // A has 64 rows
  EXPECT_THROW(validate_call(c), invalid_argument_error);
}

TEST(Calls, FlopCounts) {
  EXPECT_DOUBLE_EQ(
      call_flops(parse_call("dgemm(N,N,10,20,30,1,A,10,B,30,1,C,10)")),
      2.0 * 10 * 20 * 30);
  // trsm from the left: m^2 n.
  EXPECT_DOUBLE_EQ(
      call_flops(parse_call("dtrsm(L,L,N,N,10,20,1,A,10,B,10)")),
      100.0 * 20);
  // trsm from the right: m n^2.
  EXPECT_DOUBLE_EQ(
      call_flops(parse_call("dtrsm(R,L,N,N,10,20,1,A,20,B,10)")),
      10.0 * 400);
  EXPECT_DOUBLE_EQ(call_flops(parse_call("trinv1_unb(10,A,10)")),
                   trinv_flops(10));
  EXPECT_DOUBLE_EQ(call_flops(parse_call("sylv_unb(8,4,A,8,B,4,C,8)")),
                   sylv_flops(8, 4));
}

TEST(Calls, OperandShapesFollowFlags) {
  // gemm with transA: A is k x m.
  const auto s1 =
      operand_shapes(parse_call("dgemm(T,N,10,20,30,1,A,30,B,30,1,C,10)"));
  ASSERT_EQ(s1.size(), 3u);
  EXPECT_EQ(s1[0].rows, 30);
  EXPECT_EQ(s1[0].cols, 10);
  EXPECT_FALSE(s1[0].written);
  EXPECT_TRUE(s1[2].written);

  // trsm side=R: A is n x n.
  const auto s2 =
      operand_shapes(parse_call("dtrsm(R,U,N,N,10,20,1,A,20,B,10)"));
  EXPECT_EQ(s2[0].rows, 20);
  EXPECT_EQ(s2[0].fill, OperandShape::Fill::UpperTri);

  // sylv: L lower m x m, U upper n x n, X m x n.
  const auto s3 = operand_shapes(parse_call("sylv_unb(8,4,A,8,B,4,C,8)"));
  EXPECT_EQ(s3[0].fill, OperandShape::Fill::LowerTri);
  EXPECT_EQ(s3[1].fill, OperandShape::Fill::UpperTri);
  EXPECT_EQ(s3[2].rows, 8);
  EXPECT_EQ(s3[2].cols, 4);
}

TEST(Calls, ExecuteDispatchesCorrectly) {
  // Execute a dgemm through the dispatcher and verify the arithmetic.
  const KernelCall c = parse_call("dgemm(N,N,2,2,2,1,A,2,B,2,0,C,2)");
  std::vector<double> a{1, 2, 3, 4};  // [1 3; 2 4]
  std::vector<double> b{1, 0, 0, 1};  // identity
  std::vector<double> cc{9, 9, 9, 9};
  execute_call(c, backend_instance("naive"), {a.data(), b.data(), cc.data()});
  EXPECT_EQ(cc, a);
}

TEST(Calls, ExecuteRejectsWrongOperandCount) {
  const KernelCall c = parse_call("dgemm(N,N,2,2,2,1,A,2,B,2,0,C,2)");
  std::vector<double> a(4);
  EXPECT_THROW(execute_call(c, backend_instance("naive"), {a.data()}),
               invalid_argument_error);
}

// --------------------------------------------------------------- locality

TEST(Locality, NamesRoundTrip) {
  EXPECT_EQ(locality_from_name(locality_name(Locality::InCache)),
            Locality::InCache);
  EXPECT_EQ(locality_from_name(locality_name(Locality::OutOfCache)),
            Locality::OutOfCache);
  EXPECT_THROW((void)locality_from_name("warm"), parse_error);
}

TEST(Locality, FlushAndTouchRun) {
  // Smoke: both primitives complete without fault on real buffers.
  Matrix m(64, 64);
  touch_operand(m.data(), 64, 64, 64);
  flush_cache();
}

// ---------------------------------------------------------------- sampler

TEST(Sampler, ProducesRequestedRepCount) {
  SamplerConfig cfg;
  cfg.reps = 7;
  Sampler s(backend_instance("naive"), cfg);
  const auto raw = s.measure_raw(parse_call("dgemm(N,N,16,16,16,1,A,16,B,16,0,C,16)"));
  EXPECT_EQ(raw.size(), 7u);
  for (double t : raw) EXPECT_GT(t, 0.0);
  EXPECT_EQ(s.total_timed_runs(), 7u);
}

TEST(Sampler, StatsAreConsistentWithRaw) {
  SamplerConfig cfg;
  cfg.reps = 5;
  Sampler s(backend_instance("naive"), cfg);
  const SampleStats st =
      s.measure(parse_call("dtrsm(L,L,N,N,32,32,1,A,32,B,32)"));
  EXPECT_GT(st.min, 0.0);
  EXPECT_LE(st.min, st.median);
  EXPECT_LE(st.median, st.max);
  EXPECT_EQ(st.count, 5);
}

TEST(Sampler, LargerProblemsTakeLonger) {
  SamplerConfig cfg;
  cfg.reps = 3;
  Sampler s(backend_instance("naive"), cfg);
  const double small =
      s.measure(parse_call("dgemm(N,N,16,16,16,1,A,16,B,16,0,C,16)")).median;
  const double large =
      s.measure(parse_call("dgemm(N,N,128,128,128,1,A,128,B,128,0,C,128)"))
          .median;
  EXPECT_GT(large, small * 10);
}

TEST(Sampler, MeasureTextAcceptsPaperTuples) {
  SamplerConfig cfg;
  cfg.reps = 2;
  Sampler s(backend_instance("blocked"), cfg);
  const SampleStats st =
      s.measure_text("dtrsm(R,L,N,U,64,32,0.37,A,128,B,64)");
  EXPECT_GT(st.median, 0.0);
}

TEST(Sampler, UnblockedKernelsAreMeasurable) {
  SamplerConfig cfg;
  cfg.reps = 3;
  Sampler s(backend_instance("naive"), cfg);
  EXPECT_GT(s.measure_text("trinv3_unb(64,A,64)").median, 0.0);
  EXPECT_GT(s.measure_text("sylv_unb(32,32,A,32,B,32,C,32)").median, 0.0);
}

TEST(Sampler, RejectsBadConfig) {
  SamplerConfig cfg;
  cfg.reps = 0;
  EXPECT_THROW(Sampler(backend_instance("naive"), cfg),
               invalid_argument_error);
}

TEST(Sampler, ConcurrentMeasurementsCountEveryTimedRun) {
  // Batched generation may fan sampling out across threads; the timed-run
  // counter is atomic so the paper's sample-budget accounting never loses
  // increments (run under TSan in CI). The naive backend's kernels are
  // pure functions of their per-call operands, so one sampler instance is
  // safe to drive from many threads.
  SamplerConfig cfg;
  cfg.reps = 4;
  Sampler s(backend_instance("naive"), cfg);
  const KernelCall call = parse_call("dgemm(N,N,24,24,24,1,A,24,B,24,0,C,24)");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5;
  ThreadPool pool(kThreads);
  pool.parallel_for_each(kThreads, [&](index_t) {
    for (int i = 0; i < kPerThread; ++i) (void)s.measure(call);
  });
  EXPECT_EQ(s.total_timed_runs(),
            static_cast<std::uint64_t>(kThreads * kPerThread * cfg.reps));
}

// ---------------------------------------------------------------- machine

TEST(Machine, CalibrationIsPositiveAndCached) {
  const MachineInfo& a = machine_info();
  EXPECT_GT(a.flops_per_tick, 0.0);
  const MachineInfo& b = machine_info();
  EXPECT_EQ(&a, &b);
}

TEST(Machine, EfficiencyDefinition) {
  const double fips = machine_info().flops_per_tick;
  EXPECT_DOUBLE_EQ(efficiency(fips * 100.0, 100.0), 1.0);
  EXPECT_THROW((void)efficiency(1.0, 0.0), invalid_argument_error);
}

}  // namespace
}  // namespace dlap
