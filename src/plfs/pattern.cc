#include "plfs/pattern.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/crc32c.h"
#include "common/stats.h"
#include "common/varint.h"

namespace tio::plfs {

namespace {

// State of one writer's growing run during detection.
struct OpenRun {
  std::vector<std::uint32_t> pos;  // member stream positions, ascending
  std::uint64_t record_len = 0;
  std::uint64_t last_logical = 0;
  std::uint64_t last_physical = 0;
  std::int64_t stride = 0;         // valid once pos.size() >= 2
  std::uint32_t pos_stride = 0;    // valid once pos.size() >= 2
};

void close_run(const std::vector<IndexEntry>& entries, OpenRun&& run, std::size_t min_run,
               PatternScan& scan) {
  if (run.pos.size() < min_run) {
    scan.literals.insert(scan.literals.end(), run.pos.begin(), run.pos.end());
    return;
  }
  const IndexEntry& first = entries[run.pos.front()];
  const IndexEntry& last = entries[run.pos.back()];
  PatternRun out;
  out.pos_start = run.pos.front();
  out.pos_stride = run.pos_stride == 0 ? 1 : run.pos_stride;
  out.entry.logical_start = first.logical_offset;
  out.entry.stride = run.stride;
  out.entry.record_len = run.record_len;
  out.entry.physical_start = first.physical_offset;
  out.entry.count = static_cast<std::uint32_t>(run.pos.size());
  out.entry.writer = first.writer;
  out.entry.timestamp_base = first.timestamp_ns;
  // Fit the timestamp progression through the endpoints; the encoder stores
  // per-record residuals unless the fit is exact.
  out.entry.timestamp_delta =
      run.pos.size() < 2 ? 0
                         : (last.timestamp_ns - first.timestamp_ns) /
                               static_cast<std::int64_t>(run.pos.size() - 1);
  out.ts_exact = true;
  for (std::size_t j = 0; j < run.pos.size(); ++j) {
    if (entries[run.pos[j]].timestamp_ns !=
        out.entry.timestamp_base + static_cast<std::int64_t>(j) * out.entry.timestamp_delta) {
      out.ts_exact = false;
      break;
    }
  }
  scan.runs.push_back(std::move(out));
}

constexpr char kErrPrefix[] = "corrupt index log (wire v2): ";

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

// One self-contained segment: magic | version | count | payload_len |
// payload | crc32c. `stats` gates the plfs.index.pattern.* counters so
// size-only probes don't skew them.
void append_v2_segment(std::vector<std::byte>& out, const std::vector<IndexEntry>& entries,
                       bool stats) {
  const std::size_t seg = out.size();
  const PatternScan scan = detect_patterns(entries);

  std::vector<std::byte> payload;
  payload.reserve(entries.size() * 4);
  std::size_t run_entries = 0;
  for (const auto& r : scan.runs) {
    payload.push_back(static_cast<std::byte>(r.ts_exact ? 0x01 : 0x02));
    put_varint(payload, r.entry.writer);
    put_varint(payload, r.pos_start);
    put_varint(payload, r.pos_stride);
    put_varint(payload, r.entry.count);
    put_varint(payload, r.entry.record_len);
    put_varint(payload, r.entry.logical_start);
    put_varint(payload, r.entry.physical_start);
    put_varint_signed(payload, r.entry.stride);
    put_varint_signed(payload, r.entry.timestamp_base);
    put_varint_signed(payload, r.entry.timestamp_delta);
    if (!r.ts_exact) {
      for (std::uint32_t j = 0; j < r.entry.count; ++j) {
        const IndexEntry& e = entries[r.pos_start + static_cast<std::size_t>(j) * r.pos_stride];
        const std::int64_t predicted =
            r.entry.timestamp_base + static_cast<std::int64_t>(j) * r.entry.timestamp_delta;
        put_varint_signed(payload, e.timestamp_ns - predicted);
      }
    }
    run_entries += r.entry.count;
  }
  if (!scan.literals.empty()) {
    payload.push_back(static_cast<std::byte>(0x00));
    put_varint(payload, scan.literals.size());
    IndexEntry prev{};
    for (const std::uint32_t pos : scan.literals) {
      const IndexEntry& e = entries[pos];
      put_varint_signed(payload, static_cast<std::int64_t>(e.logical_offset - prev.logical_offset));
      put_varint_signed(payload, static_cast<std::int64_t>(e.length - prev.length));
      put_varint_signed(payload,
                        static_cast<std::int64_t>(e.physical_offset - prev.physical_offset));
      put_varint_signed(payload, e.timestamp_ns - prev.timestamp_ns);
      put_varint(payload, e.writer);
      prev = e;
    }
  }

  put_u32(out, kWireMagic);
  out.push_back(static_cast<std::byte>(kWireVersion));
  put_varint(out, entries.size());
  put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32c(out.data() + seg, out.size() - seg);
  put_u32(out, crc);

  if (stats) {
    counter("plfs.index.pattern.segments").add(1);
    counter("plfs.index.pattern.runs").add(scan.runs.size());
    counter("plfs.index.pattern.run_entries").add(run_entries);
    counter("plfs.index.pattern.literal_entries").add(scan.literals.size());
    counter("plfs.index.pattern.raw_bytes").add(entries.size() * IndexEntry::kSerializedSize);
    counter("plfs.index.pattern.wire_bytes").add(out.size() - seg);
  }
}

}  // namespace

PatternScan detect_patterns(const std::vector<IndexEntry>& entries, std::size_t min_run) {
  PatternScan scan;
  const std::size_t n = entries.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    // Positions are u32 on the wire; absurdly large batches go literal.
    scan.literals.resize(n);
    for (std::size_t i = 0; i < n; ++i) scan.literals[i] = static_cast<std::uint32_t>(i);
    return scan;
  }
  std::unordered_map<std::uint32_t, OpenRun> open;
  open.reserve(64);
  for (std::size_t i = 0; i < n; ++i) {
    const IndexEntry& e = entries[i];
    const auto pos = static_cast<std::uint32_t>(i);
    if (e.length == 0) {  // defensive; writers never log empty extents
      scan.literals.push_back(pos);
      continue;
    }
    OpenRun& run = open[e.writer];
    if (!run.pos.empty()) {
      const std::int64_t d_logical = static_cast<std::int64_t>(e.logical_offset - run.last_logical);
      const std::uint32_t d_pos = pos - run.pos.back();
      const bool contiguous = e.length == run.record_len &&
                              e.physical_offset == run.last_physical + run.record_len;
      const bool arithmetic = run.pos.size() == 1 ||
                              (d_logical == run.stride && d_pos == run.pos_stride);
      if (contiguous && arithmetic) {
        if (run.pos.size() == 1) {
          run.stride = d_logical;
          run.pos_stride = d_pos;
        }
        run.pos.push_back(pos);
        run.last_logical = e.logical_offset;
        run.last_physical = e.physical_offset;
        continue;
      }
      close_run(entries, std::move(run), min_run, scan);
      run = OpenRun{};
    }
    run.pos.push_back(pos);
    run.record_len = e.length;
    run.last_logical = e.logical_offset;
    run.last_physical = e.physical_offset;
  }
  for (auto& [writer, run] : open) {
    if (!run.pos.empty()) close_run(entries, std::move(run), min_run, scan);
  }
  std::sort(scan.runs.begin(), scan.runs.end(),
            [](const PatternRun& a, const PatternRun& b) { return a.pos_start < b.pos_start; });
  std::sort(scan.literals.begin(), scan.literals.end());
  return scan;
}

void append_encoded(std::vector<std::byte>& out, const std::vector<IndexEntry>& entries,
                    WireFormat wire) {
  if (entries.empty()) return;
  if (wire == WireFormat::v1) {
    out.reserve(out.size() + entries.size() * IndexEntry::kSerializedSize);
    for (const auto& e : entries) append_serialized(out, e);
    return;
  }
  append_v2_segment(out, entries, /*stats=*/true);
}

std::vector<std::byte> encode_entries(const std::vector<IndexEntry>& entries, WireFormat wire) {
  std::vector<std::byte> out;
  append_encoded(out, entries, wire);
  return out;
}

std::uint64_t encoded_size(const std::vector<IndexEntry>& entries, WireFormat wire) {
  if (entries.empty()) return 0;
  if (wire == WireFormat::v1) return entries.size() * IndexEntry::kSerializedSize;
  std::vector<std::byte> tmp;
  append_v2_segment(tmp, entries, /*stats=*/false);
  return tmp.size();
}

namespace {

bool starts_with_magic(const std::byte* data, std::size_t size) {
  if (size < 4) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, data, 4);
  return magic == kWireMagic;
}

}  // namespace

bool wire_is_v2(const FragmentList& data) {
  if (data.size() < 4) return false;
  const auto bytes = data.to_bytes();
  return starts_with_magic(bytes.data(), bytes.size());
}

Result<std::vector<IndexEntry>> decode_entries_v2(const std::byte* data, std::size_t size) {
  const auto bad = [size](const std::string& what, std::uint64_t at) {
    return error(Errc::io_error, kErrPrefix + what + " at byte offset " + std::to_string(at) +
                                     " (" + std::to_string(size) + "-byte buffer)");
  };
  std::vector<IndexEntry> out;
  ByteReader r(data, size);
  while (r.remaining() > 0) {
    const std::size_t seg = r.offset();
    std::uint32_t magic = 0;
    if (!r.get_u32(magic) || magic != kWireMagic) return bad("bad segment magic", seg);
    std::uint8_t version = 0;
    if (!r.get_u8(version)) return bad("truncated segment header", r.offset());
    if (version != kWireVersion) {
      return bad("unsupported wire version " + std::to_string(version), seg + 4);
    }
    std::uint64_t count = 0;
    std::uint64_t payload_len = 0;
    if (!r.get_varint(count) || !r.get_varint(payload_len)) {
      return bad("truncated segment header", r.offset());
    }
    if (count == 0) return bad("empty segment", seg);
    if (count > std::numeric_limits<std::uint32_t>::max()) {
      return bad("implausible entry count " + std::to_string(count), seg);
    }
    const std::size_t payload_start = r.offset();
    if (payload_len > r.remaining() || r.remaining() - payload_len < 4) {
      return bad("segment payload overruns buffer", payload_start);
    }
    const std::size_t payload_end = payload_start + static_cast<std::size_t>(payload_len);

    // Integrity first: a bit flip anywhere in the segment (header included)
    // must be caught even where it would also confuse block parsing.
    std::uint32_t crc = 0;
    r.seek(payload_end);
    (void)r.get_u32(crc);
    if (crc != crc32c(data + seg, payload_end - seg)) return bad("crc mismatch", payload_end);
    const std::size_t seg_next = r.offset();

    std::vector<IndexEntry> seg_entries(count);
    std::vector<char> taken(count, 0);
    std::vector<IndexEntry> literals;
    std::size_t claimed = 0;
    ByteReader pr(data + payload_start, payload_len);
    const auto at = [payload_start](std::size_t rel) { return payload_start + rel; };
    while (pr.remaining() > 0) {
      const std::size_t block = pr.offset();
      std::uint8_t tag = 0;
      (void)pr.get_u8(tag);
      if (tag == 0x01 || tag == 0x02) {
        std::uint64_t writer = 0, pos_start = 0, pos_stride = 0, rcount = 0, record_len = 0;
        std::uint64_t logical_start = 0, physical_start = 0;
        std::int64_t stride = 0, ts_base = 0, ts_delta = 0;
        if (!pr.get_varint(writer) || !pr.get_varint(pos_start) || !pr.get_varint(pos_stride) ||
            !pr.get_varint(rcount) || !pr.get_varint(record_len) ||
            !pr.get_varint(logical_start) || !pr.get_varint(physical_start) ||
            !pr.get_varint_signed(stride) || !pr.get_varint_signed(ts_base) ||
            !pr.get_varint_signed(ts_delta)) {
          return bad("truncated pattern block", at(pr.offset()));
        }
        if (rcount == 0) return bad("empty pattern run", at(block));
        if (record_len == 0) return bad("zero-length pattern record", at(block));
        if (pos_stride == 0) return bad("zero position stride", at(block));
        if (writer > std::numeric_limits<std::uint32_t>::max()) {
          return bad("implausible writer id", at(block));
        }
        if (pos_start >= count || rcount - 1 > (count - 1 - pos_start) / pos_stride) {
          return bad("pattern positions out of range", at(block));
        }
        for (std::uint64_t j = 0; j < rcount; ++j) {
          IndexEntry e;
          const __int128 logical =
              static_cast<__int128>(logical_start) + static_cast<__int128>(j) * stride;
          if (logical < 0 || logical > static_cast<__int128>(kU64Max) - record_len) {
            return bad("extent overflow in pattern run", at(block));
          }
          const __int128 physical = static_cast<__int128>(physical_start) +
                                    static_cast<__int128>(j) * record_len;
          if (physical > static_cast<__int128>(kU64Max) - record_len) {
            return bad("extent overflow in pattern run", at(block));
          }
          __int128 ts = static_cast<__int128>(ts_base) + static_cast<__int128>(j) * ts_delta;
          if (tag == 0x02) {
            std::int64_t residual = 0;
            if (!pr.get_varint_signed(residual)) {
              return bad("truncated timestamp residuals", at(pr.offset()));
            }
            ts += residual;
          }
          if (ts < kI64Min || ts > kI64Max) return bad("timestamp overflow", at(block));
          e.logical_offset = static_cast<std::uint64_t>(logical);
          e.length = record_len;
          e.physical_offset = static_cast<std::uint64_t>(physical);
          e.timestamp_ns = static_cast<std::int64_t>(ts);
          e.writer = static_cast<std::uint32_t>(writer);
          const std::uint64_t pos = pos_start + j * pos_stride;
          if (taken[pos]) return bad("stream position claimed twice", at(block));
          taken[pos] = 1;
          seg_entries[pos] = e;
          ++claimed;
        }
      } else if (tag == 0x00) {
        std::uint64_t lcount = 0;
        if (!pr.get_varint(lcount)) return bad("truncated literal block", at(pr.offset()));
        if (lcount == 0) return bad("empty literal block", at(block));
        if (lcount > count) return bad("record count mismatch", at(block));
        IndexEntry prev{};
        for (std::uint64_t k = 0; k < lcount; ++k) {
          std::int64_t d_logical = 0, d_length = 0, d_physical = 0, d_ts = 0;
          std::uint64_t writer = 0;
          if (!pr.get_varint_signed(d_logical) || !pr.get_varint_signed(d_length) ||
              !pr.get_varint_signed(d_physical) || !pr.get_varint_signed(d_ts) ||
              !pr.get_varint(writer)) {
            return bad("truncated literal block", at(pr.offset()));
          }
          IndexEntry e;
          e.logical_offset = prev.logical_offset + static_cast<std::uint64_t>(d_logical);
          e.length = prev.length + static_cast<std::uint64_t>(d_length);
          e.physical_offset = prev.physical_offset + static_cast<std::uint64_t>(d_physical);
          e.timestamp_ns = prev.timestamp_ns + d_ts;
          if (writer > std::numeric_limits<std::uint32_t>::max()) {
            return bad("implausible writer id", at(block));
          }
          e.writer = static_cast<std::uint32_t>(writer);
          if (e.length == 0) return bad("zero-length record", at(block));
          if (e.logical_offset + e.length < e.logical_offset ||
              e.physical_offset + e.length < e.physical_offset) {
            return bad("extent overflow", at(block));
          }
          literals.push_back(e);
          prev = e;
        }
      } else {
        return bad("unknown block tag " + std::to_string(tag), at(block));
      }
    }
    if (claimed + literals.size() != count) {
      return bad("record count mismatch: blocks carry " +
                     std::to_string(claimed + literals.size()) + " of " + std::to_string(count),
                 seg);
    }
    std::size_t li = 0;
    for (std::size_t p = 0; p < count && li < literals.size(); ++p) {
      if (!taken[p]) seg_entries[p] = literals[li++];
    }
    out.insert(out.end(), seg_entries.begin(), seg_entries.end());
    r.seek(seg_next);
  }
  return out;
}

Result<std::vector<IndexEntry>> decode_entries(const FragmentList& data) {
  if (data.size() == 0) return std::vector<IndexEntry>{};
  const auto bytes = data.to_bytes();
  if (!starts_with_magic(bytes.data(), bytes.size())) return deserialize_entries(data);
  return decode_entries_v2(bytes.data(), bytes.size());
}

bool parse_wire_format(std::string_view name, WireFormat& out) {
  if (name == "v1") {
    out = WireFormat::v1;
    return true;
  }
  if (name == "v2") {
    out = WireFormat::v2;
    return true;
  }
  return false;
}

std::string wire_format_name(WireFormat wire) {
  switch (wire) {
    case WireFormat::v1: return "v1";
    case WireFormat::v2: return "v2";
  }
  return "unknown";
}

}  // namespace tio::plfs
