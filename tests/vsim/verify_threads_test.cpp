// verify_emitted from several threads at once, as the daemon's workers run
// it: four threads over eight designs share the design cache, the compiled
// plan memo and the DUT designs their testbenches bind, and every result
// must equal the serial run's. Registered with a ThreadSanitizer variant
// (.tsan).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "vsim/harness.h"

namespace hlsw::vsim {
namespace {

std::string describe(const VerifyEmittedResult& v) {
  std::ostringstream os;
  os << "cosim " << v.cosim.vectors << "/" << v.cosim.blocks << "/"
     << v.cosim.total_mismatches << "\n";
  for (const std::string& m : v.cosim.mismatches) os << "  " << m << "\n";
  for (const LintIssue& li : v.lint_issues)
    os << "lint " << li.rule << " " << li.signal << " " << li.detail << "\n";
  const TestbenchResult& tb = v.testbench;
  os << "testbench " << tb.passed << tb.finished << " " << tb.end_time << " "
     << tb.backend << " '" << tb.fallback_reason << "'\n";
  for (const std::string& line : tb.display) os << "  " << line << "\n";
  return os.str();
}

TEST(VsimVerifyThreads, ConcurrentVerifiesEqualTheSerialRun) {
  constexpr int kDesigns = 8, kThreads = 4;
  const auto archs = qam::exploration_architectures();
  ASSERT_GE(archs.size(), static_cast<std::size_t>(kDesigns));
  std::vector<hls::SynthesisResult> designs;
  for (int d = 0; d < kDesigns; ++d)
    designs.push_back(hls::run_synthesis(qam::build_qam_decoder_ir(),
                                         archs[static_cast<size_t>(d)].dir,
                                         hls::TechLibrary::asic90()));
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 16);
  const hls::CosimOptions opts{.block_size = vectors.size()};

  std::vector<std::string> serial;
  for (const hls::SynthesisResult& r : designs) {
    const VerifyEmittedResult v =
        verify_emitted(r.transformed, r.schedule, vectors, opts);
    EXPECT_TRUE(v.ok()) << describe(v);
    EXPECT_EQ(v.testbench.backend, "compiled");
    serial.push_back(describe(v));
  }

  // Thread t runs every design, starting at design 2t, so the threads
  // overlap on each design's cache entries at different moments.
  std::vector<std::vector<std::string>> got(
      kThreads, std::vector<std::string>(kDesigns));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int k = 0; k < kDesigns; ++k) {
        const int d = (2 * t + k) % kDesigns;
        const hls::SynthesisResult& r = designs[static_cast<size_t>(d)];
        got[static_cast<size_t>(t)][static_cast<size_t>(d)] = describe(
            verify_emitted(r.transformed, r.schedule, vectors, opts));
      }
    });
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t)
    for (int d = 0; d < kDesigns; ++d)
      EXPECT_EQ(got[static_cast<size_t>(t)][static_cast<size_t>(d)],
                serial[static_cast<size_t>(d)])
          << "thread " << t << ", design " << d;
}

}  // namespace
}  // namespace hlsw::vsim
