#include "core/shard_writer.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "common/fault_injection.h"
#include "core/atomic_file_writer.h"
#include "core/serialization.h"

namespace pcde {
namespace core {

namespace {

// ---------------------------------------------------------------------------
// PCDEMF1: fixed little-endian header + fixed-width shard records + a name
// blob. See shard_writer.h for the layout contract.
// ---------------------------------------------------------------------------

constexpr uint64_t kManifestMagic = 0x0031464d45444350ull;  // "PCDEMF1\0"
constexpr uint32_t kManifestVersion = 1;
// Well below any real deployment; bounds the record allocation against a
// corrupt count before the checksum can reject the file.
constexpr uint64_t kMaxShards = 65536;
constexpr uint64_t kMaxShardNameLen = 4096;

struct ManifestHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t shard_count;
  uint64_t checksum;
  double alpha_seconds;
  uint64_t source_fingerprint;
  uint64_t name_blob_bytes;
  uint64_t reserved0;
  uint64_t reserved1;
};
static_assert(sizeof(ManifestHeader) == 64, "manifest header layout");

struct ShardRecord {
  uint64_t key_lo;
  uint64_t key_hi;
  uint64_t fingerprint;
  uint64_t bytes;
  uint64_t name_off;  // into the name blob
  uint64_t name_len;
};
static_assert(sizeof(ShardRecord) == 48, "shard record layout");

uint64_t Fnv1a(uint64_t h, const void* data, size_t nbytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Checksum == manifest fingerprint: alpha + source fingerprint + every
/// record + the name blob, so any content change (a reshard, one shard's
/// new fingerprint, a renamed file) yields a new generation identity.
uint64_t ManifestChecksum(double alpha_seconds, uint64_t source_fingerprint,
                          const std::vector<ShardRecord>& records,
                          const std::string& blob) {
  uint64_t h = 14695981039346656037ull;  // FNV offset basis
  h = Fnv1a(h, &alpha_seconds, sizeof(alpha_seconds));
  h = Fnv1a(h, &source_fingerprint, sizeof(source_fingerprint));
  if (!records.empty()) {
    h = Fnv1a(h, records.data(), records.size() * sizeof(ShardRecord));
  }
  h = Fnv1a(h, blob.data(), blob.size());
  return h;
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return std::string(".");
  if (slash == 0) return std::string("/");
  return path.substr(0, slash);
}

}  // namespace

size_t ShardManifest::ShardOf(uint64_t e) const {
  // Ranges are contiguous and ascending; binary-search the first shard
  // whose key_hi covers e, clamping past-the-ceiling ids to the last shard.
  size_t lo = 0, hi = shards.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (e > shards[mid].key_hi) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<ShardManifest> WriteModelShards(const PathWeightFunction& wp,
                                         const std::string& manifest_path,
                                         const ShardWriteOptions& options) {
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "WriteModelShards: num_shards = " +
        std::to_string(options.num_shards) + " outside [1, " +
        std::to_string(kMaxShards) + "]");
  }
  if (options.file_prefix.empty() ||
      options.file_prefix.find('/') != std::string::npos) {
    return Status::InvalidArgument(
        "WriteModelShards: file_prefix must be a non-empty flat file name "
        "fragment (no '/')");
  }

  // Per-front-edge variable counts in ascending key order; the balanced
  // prefix cut below needs them sorted, and std::map delivers that.
  std::map<uint64_t, uint64_t> per_key;
  for (const InstantiatedVariable& v : wp.variables()) {
    per_key[v.path.front()] += 1;
  }
  const size_t num_shards = options.num_shards;
  if (per_key.size() < num_shards) {
    return Status::InvalidArgument(
        "WriteModelShards: model has " + std::to_string(per_key.size()) +
        " distinct front edges, fewer than the requested " +
        std::to_string(num_shards) + " shards");
  }

  // Balanced prefix partition: cut after the smallest key prefix carrying
  // >= total * (s + 1) / num_shards variables, but always leave at least
  // one distinct key per remaining shard so no shard's key set is empty.
  const uint64_t total = wp.NumVariables();
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // [key_lo, key_hi]
  {
    auto it = per_key.begin();
    uint64_t cum = 0;
    uint64_t lo = 0;
    size_t keys_taken = 0;
    for (size_t s = 0; s + 1 < num_shards; ++s) {
      const uint64_t target = total * (s + 1) / num_shards;
      uint64_t hi = it->first;
      const size_t keys_left_min = num_shards - 1 - s;
      while (keys_taken < per_key.size() - keys_left_min) {
        hi = it->first;
        cum += it->second;
        ++it;
        ++keys_taken;
        if (cum >= target) break;
      }
      ranges.emplace_back(lo, hi);
      lo = hi + 1;
    }
    ranges.emplace_back(lo, kMaxArtifactEdgeId - 1);
  }

  const std::string dir = DirOf(manifest_path);
  ShardManifest manifest;
  manifest.alpha_seconds = wp.binning().alpha_seconds();
  manifest.source_fingerprint = wp.fingerprint();

  std::vector<ShardRecord> records;
  std::string blob;
  for (size_t s = 0; s < num_shards; ++s) {
    WeightFunctionBuilder builder(wp.binning());
    // Id order == the monolithic builder's insertion order, so each shard's
    // per-front-edge candidate lists come out in exactly the order the
    // unsplit model serves them — the bit-identity contract for paths whose
    // edges all fall in one shard.
    for (const InstantiatedVariable& v : wp.variables()) {
      const uint64_t key = v.path.front();
      if (key < ranges[s].first || key > ranges[s].second) continue;
      InstantiatedVariable copy = v;
      builder.Add(std::move(copy));
    }
    PCDE_ASSIGN_OR_RETURN(shard_model, std::move(builder).TryFreeze());

    ShardInfo info;
    info.key_lo = ranges[s].first;
    info.key_hi = ranges[s].second;
    info.fingerprint = shard_model.fingerprint();
    info.file = options.file_prefix + "." + std::to_string(s) + ".pcdewf";
    const std::string shard_path = dir + "/" + info.file;
    PCDE_RETURN_NOT_OK(SaveWeightFunctionBinary(shard_model, shard_path));
    std::error_code ec;
    const uintmax_t nbytes = std::filesystem::file_size(shard_path, ec);
    if (ec) {
      return Status::Internal("WriteModelShards: cannot stat " + shard_path +
                              " (" + ec.message() + ")");
    }
    info.bytes = static_cast<uint64_t>(nbytes);

    ShardRecord rec{};
    rec.key_lo = info.key_lo;
    rec.key_hi = info.key_hi;
    rec.fingerprint = info.fingerprint;
    rec.bytes = info.bytes;
    rec.name_off = blob.size();
    rec.name_len = info.file.size();
    blob += info.file;
    records.push_back(rec);
    manifest.shards.push_back(std::move(info));
  }

  ManifestHeader header{};
  header.magic = kManifestMagic;
  header.version = kManifestVersion;
  header.shard_count = static_cast<uint32_t>(num_shards);
  header.checksum = ManifestChecksum(manifest.alpha_seconds,
                                     manifest.source_fingerprint, records,
                                     blob);
  header.alpha_seconds = manifest.alpha_seconds;
  header.source_fingerprint = manifest.source_fingerprint;
  header.name_blob_bytes = blob.size();
  manifest.fingerprint = header.checksum;

  // The manifest commits the generation — written last, atomically, so a
  // crash anywhere above leaves at worst orphan shard files, never a
  // manifest naming artifacts that do not exist in full.
  AtomicFileWriter out("WriteModelShards", "serialization.manifest",
                       manifest_path);
  PCDE_RETURN_NOT_OK(out.Open());
  PCDE_RETURN_NOT_OK(out.Write(&header, sizeof(header)));
  if (!records.empty()) {
    PCDE_RETURN_NOT_OK(
        out.Write(records.data(), records.size() * sizeof(ShardRecord)));
  }
  if (!blob.empty()) PCDE_RETURN_NOT_OK(out.Write(blob.data(), blob.size()));
  PCDE_RETURN_NOT_OK(out.Commit());
  return manifest;
}

bool IsShardManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
         magic == kManifestMagic;
}

StatusOr<ShardManifest> LoadShardManifest(const std::string& manifest_path) {
  auto bad = [&manifest_path](const std::string& what) {
    return Status::InvalidArgument("LoadShardManifest: " + what + " in " +
                                   manifest_path);
  };
  std::ifstream in(manifest_path, std::ios::binary | std::ios::ate);
  if (PCDE_FAULT_POINT("serialization.manifest_load.open") || !in.is_open()) {
    return Status::NotFound("LoadShardManifest: cannot open " + manifest_path);
  }
  const std::streamoff signed_size = in.tellg();
  if (signed_size < static_cast<std::streamoff>(sizeof(ManifestHeader))) {
    return bad("file shorter than the manifest header");
  }
  const uint64_t file_size = static_cast<uint64_t>(signed_size);
  in.seekg(0);
  std::vector<uint8_t> buffer(file_size);
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(file_size));
  if (PCDE_FAULT_POINT("serialization.manifest_load.read") || !in.good()) {
    return Status::Internal("LoadShardManifest: read failed for " +
                            manifest_path);
  }

  ManifestHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  if (header.magic != kManifestMagic) {
    return bad("bad magic (not a PCDEMF1 manifest)");
  }
  if (header.version != kManifestVersion) {
    return bad("unsupported format version " + std::to_string(header.version) +
               " (this build reads version " +
               std::to_string(kManifestVersion) + ")");
  }
  if (header.shard_count < 1 || header.shard_count > kMaxShards) {
    return bad("implausible shard count");
  }
  if (header.name_blob_bytes > file_size) return bad("implausible name blob");
  // Exact-size check: a manifest is fully structured, so any truncation or
  // trailing garbage is corruption, not slack.
  const uint64_t want =
      sizeof(ManifestHeader) + header.shard_count * sizeof(ShardRecord) +
      header.name_blob_bytes;
  if (file_size != want) {
    return bad("file size " + std::to_string(file_size) +
               " does not match the declared layout (" + std::to_string(want) +
               " bytes)");
  }
  if (!(header.alpha_seconds >= 1.0 &&
        header.alpha_seconds <= 86400.0 * 365.0)) {
    return bad("bad alpha_seconds");
  }

  std::vector<ShardRecord> records(header.shard_count);
  std::memcpy(records.data(), buffer.data() + sizeof(ManifestHeader),
              records.size() * sizeof(ShardRecord));
  const char* blob_base = reinterpret_cast<const char*>(
      buffer.data() + sizeof(ManifestHeader) +
      records.size() * sizeof(ShardRecord));
  const std::string blob(blob_base, header.name_blob_bytes);
  if (header.checksum != ManifestChecksum(header.alpha_seconds,
                                          header.source_fingerprint, records,
                                          blob)) {
    return bad("checksum mismatch (corrupt manifest)");
  }

  ShardManifest manifest;
  manifest.alpha_seconds = header.alpha_seconds;
  manifest.source_fingerprint = header.source_fingerprint;
  manifest.fingerprint = header.checksum;
  uint64_t expect_lo = 0;
  for (size_t s = 0; s < records.size(); ++s) {
    const ShardRecord& rec = records[s];
    // The ranges must partition [0, kMaxArtifactEdgeId) exactly —
    // contiguous, ascending, no gap and no overlap — so routing is a total
    // function of the edge id.
    if (rec.key_lo != expect_lo || rec.key_hi < rec.key_lo) {
      return bad("shard " + std::to_string(s) +
                 " breaks the key-range partition");
    }
    const bool last = s + 1 == records.size();
    if (last != (rec.key_hi == kMaxArtifactEdgeId - 1)) {
      return bad("shard " + std::to_string(s) +
                 " breaks the key-range partition");
    }
    if (!last) expect_lo = rec.key_hi + 1;
    if (rec.name_len < 1 || rec.name_len > kMaxShardNameLen ||
        rec.name_off > blob.size() ||
        rec.name_len > blob.size() - rec.name_off) {
      return bad("shard " + std::to_string(s) + " has a corrupt file name");
    }
    ShardInfo info;
    info.key_lo = rec.key_lo;
    info.key_hi = rec.key_hi;
    info.fingerprint = rec.fingerprint;
    info.bytes = rec.bytes;
    info.file = blob.substr(rec.name_off, rec.name_len);
    if (info.file.find('/') != std::string::npos) {
      // Names are flat siblings of the manifest by contract; a path
      // component smells like tampering, not a layout choice.
      return bad("shard " + std::to_string(s) + " has a corrupt file name");
    }
    // A shard artifact shorter than its own header can never load; reject
    // the manifest rather than fail later with a less precise message.
    if (info.bytes < 64) {
      return bad("shard " + std::to_string(s) + " declares an implausibly "
                 "short artifact");
    }
    manifest.shards.push_back(std::move(info));
  }
  return manifest;
}

}  // namespace core
}  // namespace pcde
