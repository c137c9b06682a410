// ChannelIndex: an immutable, hash-fingerprinted side structure computed
// once per SegmentedChannel and shared by every hot router.
//
// The routers' inner loops all ask the same few questions of the channel —
// "which segment of track t contains column c?", "where does that segment
// end?", "which tracks are interchangeable?" — and before this index each
// of them re-derived the answers per call (a per-Track binary search per
// lookup, a rebuilt type-class partition per route). A ChannelIndex
// flattens all of it into structure-of-arrays tables built once:
//
//  - seg_of_col: an O(1) (track, column) -> segment-id table (the hot-path
//    replacement for Track::segment_at's binary search);
//  - flat segment tables: every segment of every track in one pair of
//    left[]/right[] arrays addressed by seg_base(t) + s, plus the reverse
//    flat-id -> track map the matching routers need;
//  - type classes: the channel's identical-segmentation partition with a
//    representative track and the member list per type;
//  - per-column covering lists: for each column, the flat ids of the T
//    segments (one per track) covering it, in track order.
//
// The fingerprint is an FNV-1a hash of the full channel structure (width,
// track count, every segment boundary). It keys the engine's per-thread
// scratch arenas and the BatchRouter memo cache: two channels with equal
// fingerprints are structurally identical for routing purposes (collisions
// are possible in principle but need 2^32-scale channel populations), and
// any structural edit — including a FaultPlan-materialized degraded
// channel — changes the fingerprint, so caches keyed by it cannot serve
// stale answers across hardware faults.
//
// The index is the only view of channel structure the routers read:
// each of them takes a `const ChannelIndex&` and reaches the channel
// itself through channel().
//
// Lifetime: the index borrows the channel; the channel must outlive it.
// Construction from a temporary channel is deleted so the borrow cannot
// dangle at the end of a full-expression.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/channel.h"
#include "core/types.h"

namespace segroute {

class Occupancy;  // core/routing.h

class ChannelIndex {
 public:
  explicit ChannelIndex(const SegmentedChannel& ch);
  ChannelIndex(SegmentedChannel&&) = delete;

  [[nodiscard]] const SegmentedChannel& channel() const { return *ch_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] TrackId num_tracks() const { return num_tracks_; }
  [[nodiscard]] Column width() const { return width_; }
  [[nodiscard]] int total_segments() const { return total_segments_; }

  /// O(1): segment of track `t` containing column `c` (1 <= c <= width).
  [[nodiscard]] SegId segment_at(TrackId t, Column c) const {
    return seg_of_col_[static_cast<std::size_t>(t) * cols_ +
                       static_cast<std::size_t>(c)];
  }

  /// O(1): segment range [first, last] a span [lo, hi] occupies in track t.
  [[nodiscard]] std::pair<SegId, SegId> span(TrackId t, Column lo,
                                             Column hi) const {
    return {segment_at(t, lo), segment_at(t, hi)};
  }

  [[nodiscard]] int segments_spanned(TrackId t, Column lo, Column hi) const {
    return segment_at(t, hi) - segment_at(t, lo) + 1;
  }

  /// Sum of the lengths of the segments a span [lo, hi] occupies in t.
  [[nodiscard]] Column occupied_length(TrackId t, Column lo, Column hi) const {
    return seg_right(t, segment_at(t, hi)) - seg_left(t, segment_at(t, lo)) + 1;
  }

  /// First free column after routing a connection ending at `hi` on t:
  /// one past the right end of the segment containing `hi`.
  [[nodiscard]] Column next_free_after(TrackId t, Column hi) const {
    return seg_right(t, segment_at(t, hi)) + 1;
  }

  // Flat segment tables: segment s of track t is flat id seg_base(t) + s.
  [[nodiscard]] int seg_base(TrackId t) const {
    return seg_base_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] Column seg_left(TrackId t, SegId s) const {
    return seg_left_[static_cast<std::size_t>(seg_base(t) + s)];
  }
  [[nodiscard]] Column seg_right(TrackId t, SegId s) const {
    return seg_right_[static_cast<std::size_t>(seg_base(t) + s)];
  }
  [[nodiscard]] int num_segments(TrackId t) const {
    return seg_base_[static_cast<std::size_t>(t) + 1] -
           seg_base_[static_cast<std::size_t>(t)];
  }
  /// Track owning flat segment id `f`.
  [[nodiscard]] TrackId track_of_flat(int f) const {
    return seg_track_[static_cast<std::size_t>(f)];
  }

  // Identical-segmentation type classes (mirrors SegmentedChannel but adds
  // the per-type member lists and representatives so routers stop
  // re-deriving them per call).
  [[nodiscard]] int num_types() const { return num_types_; }
  [[nodiscard]] const std::vector<int>& type_of() const { return type_of_; }
  [[nodiscard]] const std::vector<TrackId>& tracks_of_type(int type) const {
    return type_members_[static_cast<std::size_t>(type)];
  }
  /// Lowest-indexed track of the type (its segmentation stands for all).
  [[nodiscard]] TrackId representative(int type) const {
    return type_members_[static_cast<std::size_t>(type)].front();
  }

  /// Per-column covering list: the flat ids of the segments covering
  /// column `c`, one per track, in track order. `covering_at(c)[t]` is the
  /// flat id of track t's segment at column c.
  [[nodiscard]] const int* covering_at(Column c) const {
    return covering_.data() +
           static_cast<std::size_t>(c) * static_cast<std::size_t>(num_tracks_);
  }

 private:
  const SegmentedChannel* ch_;
  std::uint64_t fingerprint_ = 0;
  TrackId num_tracks_ = 0;
  Column width_ = 0;
  std::size_t cols_ = 0;  // width_ + 1 (column 0 unused; columns 1-based)
  int total_segments_ = 0;

  std::vector<SegId> seg_of_col_;   // T x (width+1), row-major by track
  std::vector<int> seg_base_;      // T + 1 prefix offsets into flat tables
  std::vector<Column> seg_left_;   // flat, by seg_base(t) + s
  std::vector<Column> seg_right_;  // flat, by seg_base(t) + s
  std::vector<TrackId> seg_track_; // flat id -> owning track

  int num_types_ = 0;
  std::vector<int> type_of_;
  std::vector<std::vector<TrackId>> type_members_;

  std::vector<int> covering_;  // (width+1) x T, row-major by column
};

/// Optional scratch threaded through the occupancy-based routers: a
/// reusable occupancy workspace, borrowed, constructed (or rebound) for
/// the channel being routed. Null allocates one per call.
struct RouteContext {
  Occupancy* occupancy = nullptr;
};

}  // namespace segroute
