#pragma once
/// \file chunker.hpp
/// \brief Overlap-carry chunking: arbitrary-granularity sample feeds →
/// fixed dedispersion windows that make chunked output bitwise identical
/// to batch output.
///
/// Dedispersing output samples [t0, t0 + out) reads input samples
/// [t0, t0 + out + max_delay): every chunk's input window overlaps the next
/// chunk's by max_delay samples (the dispersion sweep of the highest trial).
/// The chunker assembles those windows from a stream fed at any granularity
/// — down to one sample at a time — and *carries* the max_delay-sample tail
/// from window to window instead of asking the producer to re-send it.
///
/// Because window k's content equals columns [k·out, k·out + out + max_delay)
/// of the batch input matrix exactly, running the same kernel on each window
/// performs the identical float additions in the identical order, so the
/// concatenated chunk outputs are bitwise equal to one batch run — the
/// property tests/stream_test.cpp asserts.
///
/// An asynchronous session lends the assembled window to its engine in
/// place (hold()) and keeps feeding: samples that arrive meanwhile go to a
/// chunk-sized lookahead, and release() carries the overlap forward and
/// appends the lookahead once the engine is done. Memory is one window
/// plus one chunk, with no second window to copy into.
///
/// For an engine that reads 8-bit codes (DedispEngine::input_quantizer)
/// the chunker also keeps a byte mirror of the window and the lookahead:
/// each sample is quantized once, as it is fed, on the feeding thread, and
/// advance()/release() carry the overlap's codes like its floats. Because
/// quantization is pointwise with fixed parameters, the mirrored window
/// holds exactly the codes the engine would make from the float window,
/// and the engine only accumulates. That adds a quarter of the float
/// window and lookahead in bytes.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/array2d.hpp"
#include "common/workspace.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/quantize.hpp"

namespace ddmc::stream {

/// Assembles overlap-carry chunk windows for one beam.
class OverlapChunker {
 public:
  /// \p chunk_plan is a plan whose out_samples is the chunk length
  /// (typically Plan::with_chunk or Plan::with_output_samples); its
  /// in_samples must equal out_samples + max_delay — i.e. an unrounded
  /// chunk-window plan, not a full-seconds batch plan. \p extra_overlap
  /// widens the carried overlap beyond max_delay (an engine's declared
  /// input_padding: the subband engine's split-delay rounding reads up to
  /// two columns past in_samples, and carrying real samples for them keeps
  /// chunked output identical to a batch run over a padded input). \p
  /// lookahead allocates the chunk-sized buffer that hold() needs. \p codes
  /// keeps the byte mirror under that code map.
  explicit OverlapChunker(
      const dedisp::Plan& chunk_plan, std::size_t extra_overlap = 0,
      bool lookahead = false,
      std::optional<dedisp::QuantizationParams> codes = std::nullopt);

  std::size_t channels() const { return window_.rows(); }
  /// Output samples emitted per full chunk.
  std::size_t chunk_out() const { return chunk_out_; }
  /// Samples carried between consecutive windows (the plan's max_delay
  /// plus the construction-time extra_overlap).
  std::size_t overlap() const { return overlap_; }
  /// Input samples per assembled window (= chunk_out + overlap).
  std::size_t window_samples() const { return window_.cols(); }

  /// Absorb up to samples.cols() − offset samples starting at column
  /// \p offset, stopping when the current window fills. Returns the number
  /// absorbed; the caller loops feed → (ready? emit, advance) until its
  /// samples are exhausted, which keeps the chunker's memory bounded at one
  /// window regardless of feed granularity. While the window is held the
  /// samples go to the lookahead, up to the current window's last sample.
  std::size_t feed(ConstView2D<float> samples, std::size_t offset = 0);

  /// Assembled columns of the current window (0 after skip_chunk(),
  /// overlap() right after advance() or hold()), the lookahead included.
  std::size_t filled() const { return filled_; }

  /// True when a full window is assembled in place and can be dedispersed.
  bool ready() const { return !held_ && filled_ == window_.cols(); }

  /// The assembled channels × window_samples() input window (valid while
  /// ready()); invalidated by advance() and feed().
  ConstView2D<float> chunk_input() const;

  /// True when the chunker keeps the byte mirror.
  bool has_codes() const { return codes_.has_value(); }
  /// The window's codes, same shape and validity as chunk_input().
  /// Requires has_codes().
  ConstView2D<std::uint8_t> chunk_codes() const;
  /// Samples fed so far that the code map clipped (below lo, above hi or
  /// NaN), each counted once (see skip_chunk()); 0 without the mirror.
  std::size_t clipped() const { return clipped_; }

  /// Index of the chunk currently assembling / assembled.
  std::size_t chunk_index() const { return chunk_index_; }
  /// Global output sample index of the current chunk's first column.
  std::size_t first_out_sample() const { return chunk_index_ * chunk_out_; }

  /// Consume the emitted chunk: carry the trailing overlap() samples to the
  /// window's front and start assembling the next chunk.
  void advance();

  /// Consume the emitted chunk like advance(), but leave its window in
  /// place for an engine on another thread to read: later feed()s fill the
  /// lookahead. Requires ready() and a lookahead. Completes a
  /// release(false): the floats move while the engine reads the codes.
  void hold();
  /// True between hold() and release() (or load()).
  bool held() const { return held_; }
  /// The engine is done reading the held window: carry its overlap to the
  /// front and append the lookahead. With \p floats false (and the byte
  /// mirror) only the codes move now, so the next window can go to a
  /// code-reading engine at once; hold() moves the floats. Until then
  /// chunk_input() and partial_input() throw, and the other mutators move
  /// them first.
  void release(bool floats = true);

  /// Replace the current window by \p window (channels × window_samples()),
  /// the caller's block that holds all of it, so the assembled prefix and
  /// the lookahead are duplicates: only the columns not already assembled
  /// are copied (and quantized). A held window must no longer be read.
  void load(ConstView2D<float> window);

  /// Zero-copy accounting: the caller dedispersed \p window, window
  /// chunk_index(), directly from its own contiguous sample block, so
  /// whatever prefix was assembled here is a duplicate of block content.
  /// Advances the chunk index and empties the window; the caller must
  /// resume feeding from global input column chunk_index() · chunk_out()
  /// afterwards. With the byte mirror, the window's samples count toward
  /// clipped() once, here or when they were fed, never again on a re-feed.
  void skip_chunk(ConstView2D<float> window);

  /// Output samples a final partial chunk would emit from the samples
  /// buffered so far (0 while nothing beyond the carried history is
  /// buffered). Only the plan's max_delay counts as history: the first
  /// max_delay samples of the stream produce no output, exactly as in a
  /// batch run, but the engine's extra_overlap does *not* cost output —
  /// an engine that reads past the fed samples zero-pads at stream end,
  /// exactly as a batch run over the same samples would, so feeding a
  /// session the batch input yields the batch output count.
  std::size_t pending_out() const;

  /// Input window of the final partial chunk: channels × (max_delay +
  /// pending_out() + whatever extra_overlap columns were actually fed).
  /// Valid while pending_out() > 0, the window is not held and no further
  /// feed() happens; dedisperse it with a plan of pending_out() output
  /// samples.
  ConstView2D<float> partial_input() const;

 private:
  /// Copy columns [offset, offset + n) of \p samples to column \p col of
  /// \p dst, and their codes to the same column of \p dst_codes.
  void store(ConstView2D<float> samples, std::size_t offset, std::size_t n,
             Array2D<float>& dst, View2D<std::uint8_t> dst_codes,
             std::size_t col);
  /// Carry the window's trailing overlap to its front, then append the
  /// first \p ahead lookahead columns: of the floats, of the codes.
  void move_floats(std::size_t ahead);
  void move_codes(std::size_t ahead);
  /// Carry the floats a release(false) left behind; a no-op otherwise.
  void carry_floats();

  Array2D<float> window_;     // channels × (chunk_out + overlap)
  Array2D<float> lookahead_;  // channels × chunk_out, or empty
  std::optional<dedisp::QuantizationParams> codes_;
  // The mirror is left uninitialized (every code is stored before it is
  // read), so a session's setup does not pay to zero it.
  ScratchBuffer<std::uint8_t> window_codes_storage_;
  ScratchBuffer<std::uint8_t> lookahead_codes_storage_;
  View2D<std::uint8_t> window_codes_;     // window_'s codes, or empty
  View2D<std::uint8_t> lookahead_codes_;  // lookahead_'s codes, or empty
  std::size_t clipped_ = 0;
  std::size_t counted_ = 0;  // global input columns counted into clipped_
  /// Lookahead columns of a release(false) whose floats are not carried.
  std::optional<std::size_t> floats_behind_;
  bool held_ = false;
  std::size_t chunk_out_ = 0;
  std::size_t overlap_ = 0;       // carried samples: max_delay + extra
  std::size_t data_overlap_ = 0;  // history that costs output: max_delay
  std::size_t filled_ = 0;  // assembled columns of the current window
  std::size_t chunk_index_ = 0;
};

}  // namespace ddmc::stream
