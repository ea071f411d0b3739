// Snapshot/restore: the headline guarantee is that a runtime killed
// mid-run and restored from its snapshot file reproduces the remaining
// cost series BIT FOR BIT against an uninterrupted run — charge ledgers,
// in-flight plans, carry-over files, the slot clock and the
// pending event queue (including scheduled failures and armed chaos) all
// survive the round trip through disk. Fail-fast audits stay armed, so
// the first post-restore slot re-verifies every committed plan.
#include "server/snapshot.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <string>
#include <unistd.h>

#include "audit/fingerprint.h"
#include "runtime/runtime.h"
#include "sim/workload.h"

namespace postcard::server {
namespace {

using runtime::ControllerRuntime;
using runtime::RuntimeOptions;
using runtime::RuntimeSnapshot;
using runtime::RuntimeStats;

sim::WorkloadParams small_workload(std::uint64_t seed) {
  sim::WorkloadParams p;
  p.num_datacenters = 5;
  p.link_capacity = 100.0;
  p.cost_min = 1.0;
  p.cost_max = 10.0;
  p.files_per_slot_min = 1;
  p.files_per_slot_max = 3;
  p.size_min = 10.0;
  p.size_max = 80.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = 12;
  p.seed = seed;
  return p;
}

std::string temp_snapshot_path(const char* tag) {
  return testing::TempDir() + "postcard_" + tag + "_" +
         std::to_string(::getpid()) + ".psnp";
}

/// Drives `runtime` through slots [from, to): submit the slot's batch,
/// then tick — the exact loop ControllerRuntime::replay runs.
void drive(ControllerRuntime& runtime, const sim::WorkloadGenerator& w,
           int from, int to) {
  for (int slot = from; slot < to; ++slot) {
    for (const net::FileRequest& f : w.batch(slot)) {
      runtime.ingress().submit(f);
    }
    runtime.tick();
  }
}

core::PostcardOptions no_storage() {
  core::PostcardOptions options;
  options.allow_storage = false;
  return options;
}

/// Open file descriptors of this process (entries of /proc/self/fd).
long open_fd_count() {
  return static_cast<long>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator{}));
}

/// Registers Postcard and its no-storage variant, in that order.
void add_two_backends(ControllerRuntime& runtime) {
  runtime.add_postcard_backend();
  runtime.add_postcard_backend(no_storage());
}

/// Schedules the link failure script both runs share.
void schedule_failure(ControllerRuntime& runtime) {
  runtime.fail_link(6, 2);
  runtime.restore_link(8, 2);
}

/// Every runtime of the kill/restore test runs under this slot pivot
/// budget, so the watchdog degrades slots on both sides of the kill.
RuntimeOptions budgeted() {
  RuntimeOptions options;
  options.slot_pivot_budget = 50;
  return options;
}

TEST(SnapshotRestore, KillAndRestoreReproducesCostSeriesBitForBit) {
  const sim::UniformWorkload w(small_workload(21));
  const int kill_at = 5;

  // Uninterrupted reference run (deterministic mode, fail-fast audits on
  // by default), with a scheduled link failure crossing the kill point.
  ControllerRuntime reference{net::Topology(w.topology()), budgeted()};
  add_two_backends(reference);
  schedule_failure(reference);
  drive(reference, w, 0, w.num_slots());
  reference.flush_in_flight();
  const RuntimeStats ref_stats = reference.stats();

  // Interrupted run: same setup, killed at slot `kill_at` with the link
  // events still pending in the queue.
  const std::string path = temp_snapshot_path("restore");
  {
    ControllerRuntime victim{net::Topology(w.topology()), budgeted()};
    add_two_backends(victim);
    schedule_failure(victim);
    drive(victim, w, 0, kill_at);
    write_snapshot_file(path, victim.capture_snapshot());
    // The victim is destroyed here — the abrupt-kill half of the story is
    // the atomic-rename contract tested below.
  }

  // Restored run: fresh runtime, same registration sequence, state from
  // disk, then the remaining slots.
  ControllerRuntime restored{net::Topology(w.topology()), budgeted()};
  add_two_backends(restored);
  restored.restore_snapshot(read_snapshot_file(path));
  EXPECT_EQ(restored.current_slot(), kill_at);
  drive(restored, w, kill_at, w.num_slots());
  restored.flush_in_flight();
  const RuntimeStats new_stats = restored.stats();

  ASSERT_EQ(new_stats.backends.size(), ref_stats.backends.size());
  for (std::size_t b = 0; b < ref_stats.backends.size(); ++b) {
    const runtime::BackendStats& ref = ref_stats.backends[b];
    const runtime::BackendStats& got = new_stats.backends[b];
    // Bit-for-bit: EXPECT_EQ on doubles, element by element, full series
    // (the restored prefix plus every post-restore slot).
    ASSERT_EQ(got.cost_series.size(), ref.cost_series.size()) << ref.name;
    for (std::size_t i = 0; i < ref.cost_series.size(); ++i) {
      EXPECT_EQ(got.cost_series[i], ref.cost_series[i])
          << ref.name << " slot " << i;
    }
    // Fail-fast audits were armed the whole way; the post-restore slots
    // re-checked every commit and found nothing.
    EXPECT_TRUE(got.audit_armed) << ref.name;
    EXPECT_EQ(got.audit_violations, 0) << ref.name;
    EXPECT_EQ(got.accepted_files, ref.accepted_files) << ref.name;
    EXPECT_EQ(got.delivered_volume, ref.delivered_volume) << ref.name;
    EXPECT_EQ(got.failed_files, ref.failed_files) << ref.name;
    EXPECT_EQ(got.replans, ref.replans) << ref.name;
    EXPECT_EQ(got.warm_accepts, ref.warm_accepts) << ref.name;
    // Pivot counts too: the restored controller seeds the same canonical
    // basis the reference did, so it makes the same pivots.
    EXPECT_EQ(got.lp_iterations, ref.lp_iterations) << ref.name;
    EXPECT_EQ(got.cold_starts, ref.cold_starts) << ref.name;
    // The watchdog cut the same slots the same way.
    EXPECT_EQ(got.degraded_slots, ref.degraded_slots) << ref.name;
    EXPECT_EQ(got.rung_truncated, ref.rung_truncated) << ref.name;
    EXPECT_EQ(got.rung_greedy, ref.rung_greedy) << ref.name;
  }
  EXPECT_GT(ref_stats.backends[0].degraded_slots, 0);
  EXPECT_EQ(new_stats.submitted, ref_stats.submitted);
  EXPECT_EQ(new_stats.admitted, ref_stats.admitted);
  EXPECT_EQ(new_stats.link_events, ref_stats.link_events);
  std::remove(path.c_str());
}

TEST(SnapshotRestore, EncodeDecodeIsLossless) {
  const sim::UniformWorkload w(small_workload(22));
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  runtime.fail_link(9, 1);
  drive(runtime, w, 0, 4);

  const RuntimeSnapshot snap = runtime.capture_snapshot();
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  const RuntimeSnapshot back = decode_snapshot(bytes);

  // Identical state must re-serialize to identical bytes (the ordered
  // plan ledger serializes ascending by id precisely so this holds).
  EXPECT_EQ(encode_snapshot(back), bytes);
  EXPECT_EQ(back.next_slot, snap.next_slot);
  EXPECT_EQ(back.pending_events.size(), snap.pending_events.size());
  ASSERT_EQ(back.backends.size(), 1u);
  EXPECT_EQ(back.backends[0].series, snap.backends[0].series);
  EXPECT_EQ(back.backends[0].plans.size(), snap.backends[0].plans.size());

  // X_ij is not stored: restore derives each from its series, to the bit.
  ControllerRuntime restored{net::Topology(w.topology()), RuntimeOptions{}};
  restored.add_postcard_backend();
  restored.restore_snapshot(back);
  const auto& have = runtime.policy(0).charge_state();
  const auto& got = restored.policy(0).charge_state();
  for (int l = 0; l < have.num_links(); ++l) {
    EXPECT_EQ(got.charged(l), have.charged(l)) << "link " << l;
  }
}

TEST(SnapshotRestore, TamperedFileIsRejected) {
  const sim::UniformWorkload w(small_workload(23));
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  drive(runtime, w, 0, 3);
  std::vector<std::uint8_t> bytes = encode_snapshot(runtime.capture_snapshot());

  // Flip one byte in the middle: checksum mismatch.
  std::vector<std::uint8_t> tampered = bytes;
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_THROW(decode_snapshot(tampered), WireError);

  // Truncate: length/checksum mismatch, never a crash.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{17},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_snapshot(prefix), WireError) << "prefix " << cut;
  }

  // Wrong magic and unsupported version.
  std::vector<std::uint8_t> wrong_magic = bytes;
  wrong_magic[0] ^= 0xff;
  EXPECT_THROW(decode_snapshot(wrong_magic), WireError);
  std::vector<std::uint8_t> future_version = bytes;
  future_version[4] = 99;  // version field, little-endian low byte
  EXPECT_THROW(decode_snapshot(future_version), WireError);
}

TEST(SnapshotRestore, EachCorruptionClassFailsWithItsOwnError) {
  // Operators debugging a failed failover reseed need to know WHICH way a
  // snapshot is bad: never-written, damaged, stale-format or torn. Each
  // class must fail loudly with its own message — and none may partially
  // restore (decode throws before any state is produced).
  const sim::UniformWorkload w(small_workload(26));
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  drive(runtime, w, 0, 3);
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(runtime.capture_snapshot());

  const auto error_of = [](const std::vector<std::uint8_t>& image) {
    try {
      decode_snapshot(image);
    } catch (const WireError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };

  // Zero-length file: crash before the first byte, not damage.
  EXPECT_EQ(error_of({}), "snapshot file is empty");
  {
    const std::string path = temp_snapshot_path("empty");
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    try {
      read_snapshot_file(path);
      FAIL() << "empty file restored";
    } catch (const WireError& e) {
      EXPECT_STREQ(e.what(), "snapshot file is empty");
    }
    std::remove(path.c_str());
  }

  // Single-bit flip in the body: the checksum trailer catches it.
  {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[16 + (flipped.size() - 24) / 2] ^= 0x40;
    EXPECT_EQ(error_of(flipped),
              "snapshot checksum mismatch (file corrupt or tampered)");
  }

  // Truncated mid-section: the declared body length no longer fits.
  {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() +
                                      static_cast<long>(bytes.size() / 2));
    EXPECT_NE(error_of(cut).find("snapshot body length mismatch"),
              std::string::npos);
  }
  // Truncated inside the header: a distinct, equally loud message.
  {
    std::vector<std::uint8_t> stub(bytes.begin(), bytes.begin() + 10);
    EXPECT_EQ(error_of(stub), "snapshot shorter than header + trailer");
  }

  // Version skew (a snapshot from a future build, or from the previous
  // format): rejected by version, not misparsed — the check runs before
  // any body field is touched.
  for (const std::uint32_t version :
       {std::uint32_t{99}, kSnapshotVersion - 1}) {
    std::vector<std::uint8_t> skewed = bytes;
    skewed[4] = static_cast<std::uint8_t>(version);  // little-endian low byte
    EXPECT_EQ(error_of(skewed),
              "unsupported snapshot version " + std::to_string(version));
  }

  // And the intact image still restores, proving the classes above were
  // each caused by the injected damage alone.
  EXPECT_NO_THROW(decode_snapshot(bytes));
}

TEST(SnapshotRestore, RecordedOptionsRoundTripAndAreValidated) {
  // The image records the configuration that produced it, and the decoder
  // refuses a configuration no runtime could run: an unknown audit mode, a
  // NaN, infinite or negative column-generation gap.
  const sim::UniformWorkload w(small_workload(28));
  RuntimeOptions options;
  options.slot_pivot_budget = 12;
  options.audit.mode = sim::AuditControls::Mode::kOff;
  options.dedup_submissions = true;
  ControllerRuntime runtime{net::Topology(w.topology()), options};
  core::PostcardOptions tuned = no_storage();
  tuned.cg_relative_gap = 3e-3;
  tuned.cg_stall_rounds = 9;
  tuned.prune_pricing = false;
  runtime.add_postcard_backend(tuned);
  drive(runtime, w, 0, 2);
  const RuntimeSnapshot good = runtime.capture_snapshot();

  const RuntimeSnapshot back = decode_snapshot(encode_snapshot(good));
  EXPECT_EQ(back.options.slot_pivot_budget, 12);
  EXPECT_EQ(back.options.audit.mode, sim::AuditControls::Mode::kOff);
  EXPECT_TRUE(back.options.dedup_submissions);
  ASSERT_EQ(back.backends.size(), 1u);
  EXPECT_FALSE(back.backends[0].options.allow_storage);
  EXPECT_EQ(back.backends[0].options.cg_relative_gap, 3e-3);
  EXPECT_EQ(back.backends[0].options.cg_stall_rounds, 9);
  EXPECT_FALSE(back.backends[0].options.prune_pricing);
  EXPECT_EQ(back.backends[0].stats.name, "postcard (no storage)");

  std::vector<std::function<void(RuntimeSnapshot&)>> crafted;
  crafted.push_back([](RuntimeSnapshot& snap) {
    snap.options.audit.mode = static_cast<sim::AuditControls::Mode>(2);
  });
  for (const double gap : {std::nan(""),
                           std::numeric_limits<double>::infinity(), -1e-4}) {
    crafted.push_back([gap](RuntimeSnapshot& snap) {
      snap.backends[0].options.cg_relative_gap = gap;
    });
  }
  for (std::size_t c = 0; c < crafted.size(); ++c) {
    RuntimeSnapshot snap = good;
    crafted[c](snap);
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap)), WireError)
        << "case " << c;
  }
  // The controller refuses the same gaps, so every image it writes decodes.
  core::PostcardOptions nan_gap;
  nan_gap.cg_relative_gap = std::nan("");
  ControllerRuntime fresh{net::Topology(w.topology()), RuntimeOptions{}};
  EXPECT_THROW(fresh.add_postcard_backend(nan_gap), std::invalid_argument);
}

TEST(SnapshotRestore, MismatchedRestoreTargetsAreRefused) {
  const sim::UniformWorkload w(small_workload(24));
  ControllerRuntime source{net::Topology(w.topology()), RuntimeOptions{}};
  add_two_backends(source);
  drive(source, w, 0, 2);
  const RuntimeSnapshot snap = source.capture_snapshot();

  // Backend registration order differs.
  {
    ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
    target.add_postcard_backend(no_storage());
    target.add_postcard_backend();
    EXPECT_THROW(target.restore_snapshot(snap), std::invalid_argument);
  }
  // Backend missing.
  {
    ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
    target.add_postcard_backend();
    EXPECT_THROW(target.restore_snapshot(snap), std::invalid_argument);
  }
  // Same storage flag (so the same name), another column-generation gap:
  // the restored backend would solve differently, so the field is named.
  {
    ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
    core::PostcardOptions looser;
    looser.cg_relative_gap = 2e-3;
    target.add_postcard_backend(looser);
    target.add_postcard_backend(no_storage());
    try {
      target.restore_snapshot(snap);
      ADD_FAILURE() << "a backend with another cg_relative_gap restored";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("backend 0"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("cg_relative_gap"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(target.current_slot(), 0);
  }
  // The target keeps its own RuntimeOptions: a restart may change the
  // budget (the image records the captured runtime's, for the standby).
  {
    RuntimeOptions budgeted;
    budgeted.slot_pivot_budget = 7;
    ControllerRuntime target{net::Topology(w.topology()), budgeted};
    add_two_backends(target);
    EXPECT_NO_THROW(target.restore_snapshot(snap));
    EXPECT_EQ(target.current_slot(), 2);
    EXPECT_EQ(target.capture_snapshot().options.slot_pivot_budget, 7);
    EXPECT_EQ(snap.options.slot_pivot_budget, 0);
  }
  // Different topology shape.
  {
    sim::WorkloadParams other = small_workload(24);
    other.num_datacenters = 4;
    const sim::UniformWorkload w2(other);
    ControllerRuntime target{net::Topology(w2.topology()), RuntimeOptions{}};
    add_two_backends(target);
    EXPECT_THROW(target.restore_snapshot(snap), std::invalid_argument);
  }
  // A runtime that already ticked cannot be restored into (caller misuse,
  // so logic_error rather than invalid_argument).
  {
    ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
    add_two_backends(target);
    target.tick();
    EXPECT_THROW(target.restore_snapshot(snap), std::logic_error);
  }
}

TEST(SnapshotRestore, OutOfRangeLinkStateIsRefusedBeforeAnyChange) {
  // The checksum proves a file intact, not well-formed. A pending link
  // event naming a link the topology lacks survives encode/decode, and the
  // tick would index per-link state with it; a capacity or volume the
  // ledger cannot hold would throw halfway through applying the snapshot,
  // and a NaN or infinite volume would become X_ij and poison every cost.
  // Restore must refuse each before it changes anything.
  const sim::UniformWorkload w(small_workload(27));
  ControllerRuntime source{net::Topology(w.topology()), RuntimeOptions{}};
  source.add_postcard_backend();
  drive(source, w, 0, 2);
  const RuntimeSnapshot good = source.capture_snapshot();
  const int links = static_cast<int>(good.links.size());

  std::vector<std::function<void(RuntimeSnapshot&)>> crafted;
  for (const runtime::EventPayload& payload :
       std::vector<runtime::EventPayload>{
           runtime::LinkDown{4000},
           runtime::LinkUp{links},
           runtime::CapacityChange{-1, 10.0},
           runtime::CapacityChange{0, -5.0},
           runtime::CapacityChange{0, std::nan("")},
       }) {
    crafted.push_back([payload](RuntimeSnapshot& snap) {
      snap.pending_events.push_back({3, 0, payload});
    });
  }
  crafted.push_back(
      [](RuntimeSnapshot& snap) { snap.links[0].capacity = -1.0; });
  crafted.push_back(
      [](RuntimeSnapshot& snap) { snap.base_capacity[1] = std::nan(""); });
  for (const double volume :
       {-1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    crafted.push_back([volume](RuntimeSnapshot& snap) {
      snap.backends[0].series[0] = {volume};
    });
  }

  for (std::size_t c = 0; c < crafted.size(); ++c) {
    RuntimeSnapshot snap = good;
    crafted[c](snap);
    const RuntimeSnapshot decoded = decode_snapshot(encode_snapshot(snap));
    ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
    target.add_postcard_backend();
    EXPECT_THROW(target.restore_snapshot(decoded), std::invalid_argument)
        << "case " << c;
    EXPECT_EQ(target.current_slot(), 0) << "case " << c;
    EXPECT_EQ(target.events().depth(), 0u) << "case " << c;
    EXPECT_EQ(target.stats().submitted, 0) << "case " << c;
    EXPECT_EQ(target.policy(0).charge_state().recorder().num_slots(), 0)
        << "case " << c;
  }

  // The intact snapshot still restores into a fresh runtime.
  ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
  target.add_postcard_backend();
  EXPECT_NO_THROW(target.restore_snapshot(good));
  EXPECT_EQ(target.current_slot(), 2);
}

TEST(SnapshotRestore, AtomicReplaceNeverLeavesATornFile) {
  const sim::UniformWorkload w(small_workload(25));
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  drive(runtime, w, 0, 2);

  const std::string path = temp_snapshot_path("atomic");
  const long fds_before = open_fd_count();
  write_snapshot_file(path, runtime.capture_snapshot());
  const RuntimeSnapshot first = read_snapshot_file(path);

  // Overwrite with a later state: the file is replaced via rename, so a
  // reader opening `path` at any point sees one complete snapshot.
  drive(runtime, w, 2, 4);
  write_snapshot_file(path, runtime.capture_snapshot());
  const RuntimeSnapshot second = read_snapshot_file(path);
  EXPECT_EQ(first.next_slot, 2);
  EXPECT_EQ(second.next_slot, 4);
  // Every descriptor a write opened (the .tmp file, the parent directory
  // it fsyncs) or a read opened is closed again.
  EXPECT_EQ(open_fd_count(), fds_before);

  // Simulate the abrupt-kill residue: a stray half-written .tmp next to a
  // complete snapshot must not confuse the reader.
  {
    FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn", f);
    std::fclose(f);
  }
  EXPECT_EQ(read_snapshot_file(path).next_slot, 4);
  std::remove((path + ".tmp").c_str());
  std::remove(path.c_str());
}

// A backend section whose fields all differ, offset by `k`.
runtime::BackendSnapshot distinct_backend_section(int k,
                                                  core::PostcardOptions o) {
  runtime::BackendSnapshot b;
  b.options = o;
  b.series = {{k + 0.5, k + 1.5, k + 2.5}, {k + 3.5}};
  b.series_slots = k + 4;
  b.reduce_violations = k + 5;
  for (int p = 0; p < 2; ++p) {
    b.plans.emplace_back();
    b.plans.back().request = {k + 10 * p + 6, 1, 2, k + 7.5, 3, k + 8};
    b.plans.back().deadline_slot = k + 10 * p + 9;
    b.plans.back().last_transfer_slot = k + 10 * p + 10;
    b.plans.back().plan.file_id = k + 10 * p + 6;
    b.plans.back().plan.transfers = {{k + 11, 1, 0, k + 12.5, 4},
                                     {k + 13, 0, 0, k + 14.5, -1}};
  }
  b.replan_batch = {{k + 30, 0, 2, k + 31.5, 2, k + 32}};
  b.carry_batch = {{k + 33, 2, 1, k + 34.5, 1, k + 35}};
  b.stats.name = "backend " + std::to_string(k);
  b.stats.accepted_files = k + 36;
  b.stats.accepted_volume = k + 37.5;
  b.stats.lp_iterations = k + 38;
  b.stats.pricing_seconds = k + 39.5;
  b.stats.rung_greedy = k + 40;
  b.stats.last_solver_status = "iteration limit";
  b.stats.audit_armed = true;
  b.stats.cost_series = {k + 41.5, k + 42.5};
  return b;
}

TEST(SnapshotRestore, ImageLayoutIsPinned) {
  // A snapshot built from field values that all differ — two backends with
  // non-default options, a budgeted configuration, pending events of every
  // kind, non-empty plans, replans, carries and admitted ids — with its
  // image pinned: a reordered, retyped or dropped field of any section
  // changes the digest even when encoder and decoder agree.
  RuntimeSnapshot snap;
  snap.options.slot_pivot_budget = 101;
  snap.options.dedup_submissions = true;
  snap.num_datacenters = 3;
  snap.links = {{0, 1, 102.5, 103.25}, {1, 2, 104.5, 105.25}};
  snap.base_capacity = {106.5, 107.5};
  snap.link_down = {false, true};
  snap.next_slot = 108;
  snap.next_synthetic_id = (1 << 28) + 109;
  snap.slots_processed = 110;
  snap.link_events = 111;
  snap.slot_latency.add(0.002);
  snap.slot_latency.add(0.03);
  snap.solve_latency.add(0.0004);
  snap.submitted = 112;
  snap.admitted = 113;
  snap.ingress_rejected = 114;
  snap.ingress_rejected_volume = 115.75;
  snap.admitted_ids = {116, 117, 118};
  snap.event_seq_watermark = 0x0a0b0c0d0e0f1011ULL;
  snap.pending_events = {
      {119, 120, runtime::LinkDown{1}},
      {121, 122, runtime::LinkUp{1}},
      {123, 124, runtime::CapacityChange{0, 125.5}},
      {126, 127, runtime::FileArrival{{128, 0, 2, 129.5, 2, 126}}},
  };
  core::PostcardOptions first;
  first.allow_storage = false;
  first.cg_relative_gap = 2.5e-3;
  first.cg_stall_rounds = 7;
  first.prune_pricing = false;
  core::PostcardOptions second;
  second.cg_relative_gap = 6.25e-5;
  second.cg_stall_rounds = 13;
  second.prune_pricing = false;
  snap.backends.push_back(distinct_backend_section(200, first));
  snap.backends.push_back(distinct_backend_section(300, second));

  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  EXPECT_EQ(encode_snapshot(decode_snapshot(bytes)), bytes);
  EXPECT_EQ(audit::fnv1a64(bytes.data(), bytes.size()), 0x938b40688fd9736eULL)
      << bytes.size() << " bytes";
}

}  // namespace
}  // namespace postcard::server
