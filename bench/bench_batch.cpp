// Canonical model-cache benchmark (DESIGN.md §16): exact vs canonical
// (permutation/tolerance-invariant) cache keys on a load-skewed row-tiled
// design, writing BENCH_batch.json for the nightly trend job.
//
// Claim under test: on a design whose replicated rows carry a tiny
// receiver-load skew (so exact fingerprints never re-match across rows)
// the canonical index recovers a hit rate at least as high as the exact
// index, with every tolerant reuse gated by a certificate re-pass
// (rejects are counted, never silently reused).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "chipgen/dsp_chip.h"
#include "core/verifier.h"

using namespace xtv;

namespace {

double hit_rate(std::size_t hits, std::size_t lookups) {
  return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Canonical model-cache keys on skewed tiles ==\n\n");

  std::size_t net_count = 300;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--nets") == 0)
      net_count = static_cast<std::size_t>(std::atoi(argv[i + 1]));
  }

  bench::Context ctx;
  ChipVerifier verifier(ctx.extractor, ctx.chars);

  // Load-skewed replicas: every row's receiver caps are jittered by ~1e-8
  // relative, so exact bit fingerprints never re-match across rows while
  // a canonical key at tol 1e-6 still collides — the reuse then has to
  // survive the certificate re-pass against each requester's exact
  // (G, C, B).
  constexpr std::size_t kRows = 4;
  DspChipOptions skew_opt;
  skew_opt.net_count = net_count;
  skew_opt.replicate_rows = kRows;
  skew_opt.tracks = 8 * kRows;
  skew_opt.cluster_repeat_skew = 1e-8;
  const ChipDesign skewed = generate_dsp_chip(ctx.library, skew_opt);

  VerifierOptions exact;
  exact.glitch.align_aggressors = false;
  exact.glitch.tstop = 3e-9;
  exact.threads = 1;
  exact.model_cache_mb = 64.0;

  VerifierOptions canon = exact;
  canon.canonical_cache = true;
  canon.canonical_cache_tol = 1e-6;

  const VerificationReport r_exact = verifier.verify(skewed, exact);
  ctx.chars.save(bench::kCellCachePath);
  const VerificationReport r_canon = verifier.verify(skewed, canon);

  const std::size_t lookups_exact =
      r_exact.model_cache_hits + r_exact.model_cache_misses;
  const std::size_t lookups_canon =
      r_canon.model_cache_hits + r_canon.model_cache_misses;
  const double rate_exact = hit_rate(r_exact.model_cache_hits, lookups_exact);
  const double rate_canon = hit_rate(
      r_canon.model_cache_hits + r_canon.canonical_hits, lookups_canon);
  std::printf("skewed design (%zu nets, %zu rows, skew 1e-8):\n",
              skewed.nets.size(), kRows);
  std::printf("  exact keys     : %zu hits / %zu lookups (%.0f%%)\n",
              r_exact.model_cache_hits, lookups_exact, 100.0 * rate_exact);
  std::printf("  canonical keys : %zu exact + %zu certified canonical "
              "/ %zu lookups (%.0f%%), %zu cert rejects\n",
              r_canon.model_cache_hits, r_canon.canonical_hits, lookups_canon,
              100.0 * rate_canon, r_canon.canonical_cert_rejects);

  const bool targets_met = rate_canon >= rate_exact;
  std::printf("\ntargets: canonical rate >= exact rate -> %s\n",
              targets_met ? "MET" : "MISSED");

  FILE* json = std::fopen("BENCH_batch.json", "w");
  if (json) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"nets\": %zu,\n", skewed.nets.size());
    std::fprintf(json, "  \"rows\": %zu,\n", kRows);
    std::fprintf(json, "  \"victims_eligible\": %zu,\n",
                 r_exact.victims_eligible);
    std::fprintf(json, "  \"exact_hit_rate\": %.4f,\n", rate_exact);
    std::fprintf(json, "  \"canonical_hit_rate\": %.4f,\n", rate_canon);
    std::fprintf(json, "  \"canonical_hits\": %zu,\n", r_canon.canonical_hits);
    std::fprintf(json, "  \"canonical_cert_rejects\": %zu,\n",
                 r_canon.canonical_cert_rejects);
    std::fprintf(json, "  \"targets_met\": %s\n",
                 targets_met ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_batch.json\n");
  }
  return 0;
}
