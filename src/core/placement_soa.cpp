#include "core/placement_soa.hpp"

namespace insp {

void soa_probe_candidates(const PlacementSoA& soa, const BatchFootprint& fp,
                          const int* pids, std::size_t num,
                          const double* dl_add, const double* link_base,
                          const double* link_pre, std::size_t stride,
                          const unsigned char* skip, unsigned char* verdicts) {
  // Hoisted into locals: the unsigned-char verdict stores may alias any
  // object, so fields read through fp/soa would be reloaded every candidate.
  const double* speed_cap = soa.speed_cap.data();
  const double* bw_cap = soa.bw_cap.data();
  const double* work = soa.work.data();
  const double* nic0 = soa.nic0.data();
  const double* work0 = soa.work0.data();
  const double* nic_base = soa.nic.data();
  const double* vol_to = soa.vol_to.data();
  const int* ext_pid = fp.ext_pid.data();
  const double* ext_vol = fp.ext_vol.data();
  const std::size_t ext = fp.ext_pid.size();
  const double rho = fp.rho;
  const double sum_w = fp.sum_w;
  const double ext_total = fp.ext_total;
  const double link_cap = fp.link_cap;
  const bool relaxed = fp.relaxed;
  const bool others_ok = fp.others_failed == 0 && fp.base_links_ok;
  const bool one_other_failed = fp.others_failed == 1 && fp.base_links_ok;
  const int others_failed_pid = fp.others_failed_pid;
  for (std::size_t i = 0; i < num; ++i) {
    if (skip != nullptr && skip[i] != 0) continue;
    const int pid = pids[i];

    // Every touched processor other than the candidate must pass; the
    // candidate replaces its own folded entry with the richer check below.
    bool ok = others_ok || (one_other_failed && others_failed_pid == pid);

    // CPU: the whole group lands on the candidate.
    const double cpu = rho * (work[pid] + sum_w);
    ok = ok && (fits_within(cpu, speed_cap[pid]) ||
                (relaxed && fits_within(cpu, rho * work0[pid])));

    // NIC: added downloads plus the external edge volume that actually
    // crosses (edges toward the candidate itself become internal).
    const double nic = nic_base[pid] + dl_add[i] + (ext_total - vol_to[pid]);
    ok = ok && (fits_within(nic, bw_cap[pid]) ||
                (relaxed && fits_within(nic, nic0[pid])));

    // Pairwise links toward each external neighbor processor.
    for (std::size_t j = 0; ok && j < ext; ++j) {
      if (ext_pid[j] == pid) continue;
      const double used = link_base[j * stride + i] + ext_vol[j];
      ok = fits_within(used, link_cap) ||
           (relaxed && fits_within(used, link_pre[j * stride + i]));
    }

    verdicts[i] = ok ? 1 : 0;
  }
}

void soa_probe_configs(const BatchFootprint& fp, const double* speed_caps,
                       const double* bw_caps, std::size_t num,
                       unsigned char* verdicts) {
  // A fresh processor is empty: every group type is downloaded, every
  // external edge crosses, and every candidate-side link starts at zero.
  // The candidate-independent parts collapse to one flag (O(ext), not
  // O(num)); the per-config sweep is then two comparisons per candidate.
  double dl_all = 0.0;
  for (double r : fp.gtype_rate) dl_all += r;
  bool shared_ok = fp.others_failed == 0 && fp.base_links_ok;
  for (std::size_t j = 0; shared_ok && j < fp.ext_vol.size(); ++j) {
    // Link pre-transaction value is zero too, so relaxed == strict here.
    shared_ok = fits_within(fp.ext_vol[j], fp.link_cap);
  }
  const double cpu = fp.rho * fp.sum_w;
  const double nic = dl_all + fp.ext_total;
  for (std::size_t i = 0; i < num; ++i) {
    verdicts[i] = (shared_ok && fits_within(cpu, speed_caps[i]) &&
                   fits_within(nic, bw_caps[i]))
                      ? 1
                      : 0;
  }
}

} // namespace insp
