// Shard compiler for per-region serving: splits one frozen
// PathWeightFunction into per-shard PCDEWF1 artifacts keyed by the front
// edge of each variable's interned edge sequence (the same key the frozen
// CSR candidate index uses), plus a versioned, checksummed PCDEMF1
// manifest naming every shard. serving::Engine opens the manifest and
// routes paths to shards; a shard whose key range contains every edge
// of a path holds the exact candidate set the monolithic model would use
// for that path, so single-shard serving is bit-identical to the unsplit
// model.
//
// Manifest layout (PCDEMF1, little-endian, fixed 64-byte header):
//
//   Header  { magic "PCDEMF1\0", version, shard_count, checksum,
//             alpha_seconds, source_fingerprint, name_blob_bytes }
//   Records shard_count x { key_lo, key_hi, fingerprint, bytes,
//                           name_off, name_len }      (48 bytes each)
//   Blob    concatenated shard file names (no terminators)
//
// The checksum covers alpha, the source fingerprint, every record, and the
// name blob; it doubles as the manifest fingerprint that stamps sharded
// responses. Shard key ranges partition [0, kMaxArtifactEdgeId) exactly:
// contiguous, ascending, first key_lo == 0, last key_hi == ceiling - 1 —
// every edge id has exactly one owning shard. Shard files are ordinary
// PCDEWF1 artifacts living next to the manifest (names are flat siblings,
// no directory components).
//
// Durability mirrors the model artifacts: shard files first (each through
// the atomic temp/fsync/rename dance), the manifest last — the manifest
// commits the generation, so a crash mid-split never publishes a torn set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/weight_function.h"

namespace pcde {
namespace core {

/// One shard of a split model, as recorded in the manifest.
struct ShardInfo {
  /// Inclusive front-edge key range [key_lo, key_hi] this shard owns.
  uint64_t key_lo = 0;
  uint64_t key_hi = 0;
  /// fingerprint() of the shard's model == its PCDEWF1 checksum; per-shard
  /// refresh reloads only shards whose manifest fingerprint changed.
  uint64_t fingerprint = 0;
  /// Shard artifact size in bytes (a short file fails validation before
  /// the artifact parser even runs).
  uint64_t bytes = 0;
  /// File name relative to the manifest's directory (flat sibling).
  std::string file;
};

/// A parsed, validated PCDEMF1 manifest.
struct ShardManifest {
  double alpha_seconds = 0.0;
  /// fingerprint() of the unsplit source model the shards were compiled
  /// from (diagnostic: ties a shard set back to its monolithic artifact).
  uint64_t source_fingerprint = 0;
  /// Checksum over the manifest payload — the generation identity that
  /// stamps every sharded response's model_fingerprint.
  uint64_t fingerprint = 0;
  /// Shards in ascending key order, ranges partitioning
  /// [0, kMaxArtifactEdgeId) exactly.
  std::vector<ShardInfo> shards;

  /// Index of the shard owning front-edge key `e` (ranges partition the
  /// whole key space; ids at or above the artifact ceiling clamp to the
  /// last shard). Requires a validated (non-empty) manifest.
  size_t ShardOf(uint64_t e) const;
};

struct ShardWriteOptions {
  /// Number of shards to split into (>= 1; needs at least this many
  /// distinct front edges in the model).
  size_t num_shards = 2;
  /// Shard files are named "<file_prefix>.<i>.pcdewf" next to the manifest.
  std::string file_prefix = "shard";
};

/// \brief Splits `wp` into per-shard PCDEWF1 artifacts plus a PCDEMF1
/// manifest at `manifest_path` (shard files are written into the manifest's
/// directory). Key ranges are cut so shards carry roughly equal variable
/// counts. Every write is atomic + crash-durable and carries fault sites
/// ("serialization.binary.*" for the shard artifacts,
/// "serialization.manifest.*" for the manifest itself). Returns the
/// manifest that was written.
StatusOr<ShardManifest> WriteModelShards(const PathWeightFunction& wp,
                                         const std::string& manifest_path,
                                         const ShardWriteOptions& options);

/// True when `path` starts with the PCDEMF1 manifest magic (false for model
/// artifacts, short files, and unreadable paths) — how serving::Engine
/// tells a manifest from a model artifact.
bool IsShardManifest(const std::string& path);

/// \brief Reads and validates a PCDEMF1 manifest: magic, version, checksum,
/// record bounds, name sanity, and the exact key-range partition are all
/// enforced here, so corrupt/truncated/version-skewed manifests fail with a
/// clean Status (never crash). Shard *files* are not opened — existence and
/// content checks belong to the engine attach path, which compares each
/// artifact's size and fingerprint against the manifest record.
/// Fault sites: "serialization.manifest_load.open" / ".read".
StatusOr<ShardManifest> LoadShardManifest(const std::string& manifest_path);

}  // namespace core
}  // namespace pcde
