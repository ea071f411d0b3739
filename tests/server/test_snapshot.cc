// Snapshot/restore: the headline guarantee is that a runtime killed
// mid-run and restored from its snapshot file reproduces the remaining
// cost series BIT FOR BIT against an uninterrupted run — charge ledgers,
// warm caches, in-flight plans, carry-over files, the slot clock and the
// pending event queue (including scheduled failures and armed chaos) all
// survive the round trip through disk. Fail-fast audits stay armed, so
// the first post-restore slot re-verifies every committed plan.
#include "server/snapshot.h"

#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>

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

/// Schedules the failure/chaos script both runs share.
void inject_chaos(ControllerRuntime& runtime) {
  runtime.fail_link(6, 2);
  runtime.restore_link(8, 2);
  runtime.stall_solver(7, 50);
}

TEST(SnapshotRestore, KillAndRestoreReproducesCostSeriesBitForBit) {
  const sim::UniformWorkload w(small_workload(21));
  const int kill_at = 5;

  // Uninterrupted reference run (deterministic mode, fail-fast audits on
  // by default), with scheduled chaos crossing the kill point.
  ControllerRuntime reference{net::Topology(w.topology()), RuntimeOptions{}};
  reference.add_postcard_backend();
  reference.add_flow_backend();
  inject_chaos(reference);
  drive(reference, w, 0, w.num_slots());
  reference.flush_in_flight();
  const RuntimeStats ref_stats = reference.stats();

  // Interrupted run: same setup, killed at slot `kill_at` with the chaos
  // events still pending in the queue.
  const std::string path = temp_snapshot_path("restore");
  {
    ControllerRuntime victim{net::Topology(w.topology()), RuntimeOptions{}};
    victim.add_postcard_backend();
    victim.add_flow_backend();
    inject_chaos(victim);
    drive(victim, w, 0, kill_at);
    write_snapshot_file(path, victim.capture_snapshot());
    // The victim is destroyed here — the abrupt-kill half of the story is
    // the atomic-rename contract tested below.
  }

  // Restored run: fresh runtime, same registration sequence, state from
  // disk, then the remaining slots.
  ControllerRuntime restored{net::Topology(w.topology()), RuntimeOptions{}};
  restored.add_postcard_backend();
  restored.add_flow_backend();
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
  }
  EXPECT_EQ(new_stats.submitted, ref_stats.submitted);
  EXPECT_EQ(new_stats.admitted, ref_stats.admitted);
  EXPECT_EQ(new_stats.link_events, ref_stats.link_events);
  EXPECT_EQ(new_stats.solver_stalls, ref_stats.solver_stalls);
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
  // plan/flow ledgers serialize ascending by id precisely so this holds).
  EXPECT_EQ(encode_snapshot(back), bytes);
  EXPECT_EQ(back.next_slot, snap.next_slot);
  EXPECT_EQ(back.pending_events.size(), snap.pending_events.size());
  ASSERT_EQ(back.backends.size(), 1u);
  EXPECT_EQ(back.backends[0].series, snap.backends[0].series);
  EXPECT_EQ(back.backends[0].charged, snap.backends[0].charged);
  EXPECT_EQ(back.backends[0].plans.size(), snap.backends[0].plans.size());
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

TEST(SnapshotRestore, MismatchedRestoreTargetsAreRefused) {
  const sim::UniformWorkload w(small_workload(24));
  ControllerRuntime source{net::Topology(w.topology()), RuntimeOptions{}};
  source.add_postcard_backend();
  source.add_flow_backend();
  drive(source, w, 0, 2);
  const RuntimeSnapshot snap = source.capture_snapshot();

  // Backend registration order differs.
  {
    ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
    target.add_flow_backend();
    target.add_postcard_backend();
    EXPECT_THROW(target.restore_snapshot(snap), std::invalid_argument);
  }
  // Backend missing.
  {
    ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
    target.add_postcard_backend();
    EXPECT_THROW(target.restore_snapshot(snap), std::invalid_argument);
  }
  // Different topology shape.
  {
    sim::WorkloadParams other = small_workload(24);
    other.num_datacenters = 4;
    const sim::UniformWorkload w2(other);
    ControllerRuntime target{net::Topology(w2.topology()), RuntimeOptions{}};
    target.add_postcard_backend();
    target.add_flow_backend();
    EXPECT_THROW(target.restore_snapshot(snap), std::invalid_argument);
  }
  // A runtime that already ticked cannot be restored into (caller misuse,
  // so logic_error rather than invalid_argument).
  {
    ControllerRuntime target{net::Topology(w.topology()), RuntimeOptions{}};
    target.add_postcard_backend();
    target.add_flow_backend();
    target.tick();
    EXPECT_THROW(target.restore_snapshot(snap), std::logic_error);
  }
}

TEST(SnapshotRestore, AtomicReplaceNeverLeavesATornFile) {
  const sim::UniformWorkload w(small_workload(25));
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  drive(runtime, w, 0, 2);

  const std::string path = temp_snapshot_path("atomic");
  write_snapshot_file(path, runtime.capture_snapshot());
  const RuntimeSnapshot first = read_snapshot_file(path);

  // Overwrite with a later state: the file is replaced via rename, so a
  // reader opening `path` at any point sees one complete snapshot.
  drive(runtime, w, 2, 4);
  write_snapshot_file(path, runtime.capture_snapshot());
  const RuntimeSnapshot second = read_snapshot_file(path);
  EXPECT_EQ(first.next_slot, 2);
  EXPECT_EQ(second.next_slot, 4);

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

}  // namespace
}  // namespace postcard::server
