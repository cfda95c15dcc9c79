#include "plfs/index_builder.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "common/crc32c.h"
#include "common/stats.h"
#include "plfs/pattern.h"

namespace tio::plfs {

namespace {

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void IndexBuilder::add_run(std::shared_ptr<const std::vector<IndexEntry>> run) {
  if (!run || run->empty()) return;
  total_entries_ += run->size();
  runs_.push_back(std::move(run));
}

void IndexBuilder::add_entries(std::vector<IndexEntry> entries) {
  if (entries.empty()) return;
  add_run(std::make_shared<const std::vector<IndexEntry>>(std::move(entries)));
}

std::vector<IndexEntry> IndexBuilder::merged_run() const {
  const std::int64_t t0 = host_now_ns();

  // Materialize sorted views of each run; unsorted inputs get a sorted copy.
  std::vector<const std::vector<IndexEntry>*> sorted_runs;
  sorted_runs.reserve(runs_.size());
  std::vector<std::vector<IndexEntry>> fixups;
  for (const auto& run : runs_) {
    if (std::is_sorted(run->begin(), run->end(), entry_timestamp_less)) {
      sorted_runs.push_back(run.get());
    } else {
      fixups.push_back(*run);
      std::sort(fixups.back().begin(), fixups.back().end(), entry_timestamp_less);
      sorted_runs.push_back(&fixups.back());
    }
  }

  std::vector<IndexEntry> out;
  out.reserve(total_entries_);
  if (sorted_runs.size() == 1) {
    out = *sorted_runs[0];
  } else if (!sorted_runs.empty()) {
    // Binary min-heap of cursors, keyed by each cursor's current entry.
    struct Cursor {
      const std::vector<IndexEntry>* run;
      std::size_t pos;
    };
    std::vector<Cursor> heap;
    heap.reserve(sorted_runs.size());
    for (const auto* run : sorted_runs) heap.push_back(Cursor{run, 0});
    auto cursor_after = [](const Cursor& a, const Cursor& b) {
      // std::push_heap builds a max-heap; invert for min-first.
      return entry_timestamp_less((*b.run)[b.pos], (*a.run)[a.pos]);
    };
    std::make_heap(heap.begin(), heap.end(), cursor_after);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), cursor_after);
      Cursor& c = heap.back();
      out.push_back((*c.run)[c.pos]);
      if (++c.pos < c.run->size()) {
        std::push_heap(heap.begin(), heap.end(), cursor_after);
      } else {
        heap.pop_back();
      }
    }
  }

  static Counter& runs_merged = counter("plfs.index.runs_merged");
  static Counter& entries_merged = counter("plfs.index.entries_merged");
  static Counter& build_ns = counter("plfs.index.build_ns");
  runs_merged.add(runs_.size());
  entries_merged.add(out.size());
  build_ns.add(static_cast<std::uint64_t>(host_now_ns() - t0));
  return out;
}

IndexPtr IndexBuilder::build() const {
  const std::vector<IndexEntry> run = merged_run();
  const std::int64_t t0 = host_now_ns();
  IndexPtr built = std::make_shared<const FlatIndex>(FlatIndex::from_sorted(run));
  static Counter& builds = counter("plfs.index.builds");
  static Counter& build_ns = counter("plfs.index.build_ns");
  builds.add(1);
  build_ns.add(static_cast<std::uint64_t>(host_now_ns() - t0));
  return built;
}

std::vector<std::byte> serialize_entries_with_trailer(const std::vector<IndexEntry>& entries,
                                                      WireFormat wire) {
  std::vector<std::byte> out = encode_entries(entries, wire);
  const std::size_t base = out.size();
  out.resize(base + kIndexTrailerSize);
  const std::uint64_t count = entries.size();
  std::memcpy(out.data() + base, &kIndexTrailerMagic, 4);
  std::memcpy(out.data() + base + 4, &count, 8);
  const std::uint32_t crc = crc32c(out.data(), base + 12);
  std::memcpy(out.data() + base + 12, &crc, 4);
  return out;
}

Result<std::vector<IndexEntry>> deserialize_trailed_entries(const FragmentList& data) {
  const auto bad = [&](const std::string& what, std::uint64_t at) {
    return error(Errc::io_error, "corrupt flattened index: " + what + " at byte offset " +
                                     std::to_string(at) + " (" + std::to_string(data.size()) +
                                     "-byte file)");
  };
  if (data.size() < kIndexTrailerSize) return bad("truncated trailer", 0);
  const auto bytes = data.to_bytes();
  const std::size_t base = bytes.size() - kIndexTrailerSize;
  std::uint32_t magic = 0;
  std::uint64_t count = 0;
  std::uint32_t crc = 0;
  std::memcpy(&magic, bytes.data() + base, 4);
  std::memcpy(&count, bytes.data() + base + 4, 8);
  std::memcpy(&crc, bytes.data() + base + 12, 4);
  if (magic != kIndexTrailerMagic) return bad("bad trailer magic", base);
  const std::uint32_t want = crc32c(bytes.data(), base + 12);
  if (crc != want) return bad("crc mismatch", base + 12);
  // The record payload self-describes its wire format (v2 segments lead
  // with their own magic); `count` cross-checks whichever decoder ran.
  Result<std::vector<IndexEntry>> entries = error(Errc::io_error, "unreachable");
  if (base >= 4 && std::memcmp(bytes.data(), &kWireMagic, 4) == 0) {
    entries = decode_entries_v2(bytes.data(), base);
  } else {
    if (base % IndexEntry::kSerializedSize != 0) return bad("truncated trailer", base);
    FragmentList records;
    records.append(DataView::literal(std::vector<std::byte>(bytes.begin(), bytes.begin() + base)));
    entries = deserialize_entries(records);
  }
  if (!entries.ok()) return entries.status();
  if (entries->size() != count) return bad("record count mismatch", base + 4);
  return entries;
}

}  // namespace tio::plfs
