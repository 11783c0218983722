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
/// Two windows alternate: window k is assembled in buffer k mod 2. After
/// advance() the emitted window stays intact, so an engine on another
/// thread can read it while the next one is assembled in the other buffer;
/// the first write to that buffer copies the emitted window's overlap tail
/// to its front (a read of the emitted window). The caller only has to keep
/// the engine off the buffer being assembled, window() — which is the one
/// the engine read *two* chunks back.
///
/// Windows hold the element type the session's engines read: floats, and
/// for an engine that reads 8-bit codes (DedispEngine::input_quantizer)
/// codes, each sample quantized once, as it is fed, on the feeding thread.
/// Quantization is pointwise with fixed parameters, so a code window holds
/// exactly the codes the engine would make from the float window. A
/// session that only ever runs the code-reading engine keeps code windows
/// alone. The two windows of the benchmark plans (channels × window
/// columns × element bytes, each): `apertif_rt` 2 × 11.7 MB of floats
/// (1,024 × 2,836 × 4), `apertif_lowlat` 2 × 2.1 MB of floats (1,024 ×
/// 502 × 4), `lofar_rt` 2 × 2.4 MB of codes (32 × 76,011 × 1).
///
/// The buffers are left uninitialized: every column is written before it
/// is read, so a session's setup does not pay to zero them.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/array2d.hpp"
#include "common/workspace.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/quantize.hpp"

namespace ddmc::stream {

/// Assembles overlap-carry chunk windows. Several beams of one plan share
/// one chunker: their channels are stacked along the rows, beam b at rows
/// [b·C, (b+1)·C) of every block fed and every window, so one feed and one
/// carry move every beam's samples.
class OverlapChunker {
 public:
  /// \p chunk_plan is a plan whose out_samples is the chunk length
  /// (typically Plan::with_chunk or Plan::with_output_samples); its
  /// in_samples must equal out_samples + max_delay — i.e. an unrounded
  /// chunk-window plan, not a full-seconds batch plan. \p extra_overlap
  /// widens the carried overlap beyond max_delay (an engine's declared
  /// input_padding: the subband engine's split-delay rounding reads up to
  /// two columns past in_samples, and carrying real samples for them keeps
  /// chunked output identical to a batch run over a padded input). \p codes
  /// keeps code windows under that code map; \p floats keeps float windows
  /// (at least one of the two). Windows hold \p beams × the plan's
  /// channels rows.
  explicit OverlapChunker(
      const dedisp::Plan& chunk_plan, std::size_t extra_overlap = 0,
      std::optional<dedisp::QuantizationParams> codes = std::nullopt,
      bool floats = true, std::size_t beams = 1);

  /// Rows of every block fed and every window: beams × channels.
  std::size_t rows() const { return rows_; }
  /// Output samples emitted per full chunk.
  std::size_t chunk_out() const { return chunk_out_; }
  /// Samples carried between consecutive windows (the plan's max_delay
  /// plus the construction-time extra_overlap).
  std::size_t overlap() const { return overlap_; }
  /// Input samples per assembled window (= chunk_out + overlap).
  std::size_t window_samples() const { return chunk_out_ + overlap_; }

  /// True when the chunker keeps float windows.
  bool has_floats() const { return floats_[0].data() != nullptr; }
  /// True when the chunker keeps code windows.
  bool has_codes() const { return quant_.has_value(); }

  /// Buffer (0 or 1) of the window being assembled: the one feed(),
  /// free_columns() and partial_*() write.
  std::size_t window() const { return cur_; }

  /// Absorb up to samples.cols() − offset samples starting at column
  /// \p offset, stopping when the current window fills. Returns the number
  /// absorbed; the caller loops feed → (ready? emit, advance) until its
  /// samples are exhausted. A block that holds the whole window is fed
  /// from the end of the assembled prefix, which it repeats: only the
  /// missing columns are copied (and quantized).
  std::size_t feed(ConstView2D<float> samples, std::size_t offset = 0);

  /// The current window's unassembled float columns, for a caller that
  /// writes samples in place (a ring pop) and then commit()s them.
  /// Requires has_floats().
  View2D<float> free_columns();
  /// The caller wrote the first \p n columns of free_columns(): count them
  /// assembled (and quantize them into the code window, if kept).
  void commit(std::size_t n);

  /// Assembled columns of the current window (0 after skip_chunk(),
  /// overlap() right after advance()).
  std::size_t filled() const { return filled_; }

  /// True when a full window is assembled and can be dedispersed.
  bool ready() const { return filled_ == window_samples(); }

  /// The assembled rows() × window_samples() window (valid while
  /// ready(), and after advance() until the next write to its buffer).
  /// Requires has_floats().
  ConstView2D<float> chunk_input() const;
  /// The window's codes, same shape and validity. Requires has_codes().
  ConstView2D<std::uint8_t> chunk_codes() const;

  /// Samples fed so far that the code map clipped (below lo, above hi or
  /// NaN), each counted once (see skip_chunk()); 0 without code windows.
  std::size_t clipped() const { return clipped_; }

  /// Index of the chunk currently assembling / assembled.
  std::size_t chunk_index() const { return chunk_index_; }
  /// Global output sample index of the current chunk's first column.
  std::size_t first_out_sample() const { return chunk_index_ * chunk_out_; }

  /// Consume the emitted chunk: assemble the next window in the other
  /// buffer, starting with the emitted window's trailing overlap() samples.
  /// The emitted window is left as it is; its tail is copied by the first
  /// write to the next window.
  void advance();

  /// Zero-copy accounting: the caller dedispersed \p window, window
  /// chunk_index(), directly from its own contiguous sample block, so
  /// whatever prefix was assembled here is a duplicate of block content.
  /// Advances the chunk index and empties the window; the caller must
  /// resume feeding from global input column chunk_index() · chunk_out()
  /// afterwards. With code windows, the window's samples count toward
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

  /// Input window of the final partial chunk: rows() × (max_delay +
  /// pending_out() + whatever extra_overlap columns were actually fed).
  /// Valid while pending_out() > 0 and no further feed() happens;
  /// dedisperse it with a plan of pending_out() output samples. Writes the
  /// current window (the carried overlap), like feed(). The floats require
  /// has_floats(), the codes has_codes().
  ConstView2D<float> partial_input();
  ConstView2D<std::uint8_t> partial_codes();

 private:
  /// Copy the previous window's overlap tail to the current window's
  /// front, if advance() left it behind.
  void carry();
  /// Quantize columns [offset, offset + n) of \p samples into the current
  /// code window at filled(), counting the clipped samples not yet seen.
  void quantize(ConstView2D<float> samples, std::size_t offset,
                std::size_t n);

  std::size_t rows_ = 0;
  std::optional<dedisp::QuantizationParams> quant_;
  std::array<ScratchBuffer<float>, 2> float_storage_;
  std::array<ScratchBuffer<std::uint8_t>, 2> code_storage_;
  std::array<View2D<float>, 2> floats_;        // or empty
  std::array<View2D<std::uint8_t>, 2> codes_;  // or empty
  std::size_t cur_ = 0;       // buffer of the window being assembled
  bool carry_ = false;        // the other buffer's tail is not copied yet
  std::size_t clipped_ = 0;
  std::size_t counted_ = 0;  // global input columns counted into clipped_
  std::size_t chunk_out_ = 0;
  std::size_t overlap_ = 0;       // carried samples: max_delay + extra
  std::size_t data_overlap_ = 0;  // history that costs output: max_delay
  std::size_t filled_ = 0;  // assembled columns of the current window
  std::size_t chunk_index_ = 0;
};

}  // namespace ddmc::stream
