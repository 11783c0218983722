#include "stream/chunker.hpp"

#include <algorithm>
#include <cstring>

#include "common/expect.hpp"
#include "resilience/fault_injection.hpp"

namespace ddmc::stream {

OverlapChunker::OverlapChunker(
    const dedisp::Plan& chunk_plan, std::size_t extra_overlap, bool lookahead,
    std::optional<dedisp::QuantizationParams> codes)
    : window_(chunk_plan.channels(), chunk_plan.in_samples() + extra_overlap),
      codes_(codes),
      chunk_out_(chunk_plan.out_samples()),
      overlap_(chunk_plan.max_delay() + extra_overlap),
      data_overlap_(chunk_plan.max_delay()) {
  DDMC_REQUIRE(chunk_plan.in_samples() == chunk_out_ + chunk_plan.max_delay(),
               "chunk plan must be unrounded: in = out + max_delay "
               "(use Plan::with_chunk or Plan::with_output_samples)");
  if (lookahead) lookahead_ = Array2D<float>(channels(), chunk_out_);
  if (codes_) {
    window_codes_ = window_codes_storage_.matrix(channels(), window_.cols());
    if (lookahead) {
      lookahead_codes_ =
          lookahead_codes_storage_.matrix(channels(), chunk_out_);
    }
  }
}

void OverlapChunker::store(ConstView2D<float> samples, std::size_t offset,
                           std::size_t n, Array2D<float>& dst,
                           View2D<std::uint8_t> dst_codes,
                           std::size_t col) {
  if (n == 0) return;
  for (std::size_t ch = 0; ch < channels(); ++ch) {
    std::memcpy(&dst(ch, col), &samples(ch, offset), n * sizeof(float));
  }
  if (!codes_) return;
  const auto in = [&](std::size_t from, std::size_t to) {
    return ConstView2D<float>(&samples(0, offset + from), channels(),
                              to - from, samples.pitch());
  };
  const auto out = [&](std::size_t from, std::size_t to) {
    return View2D<std::uint8_t>(&dst_codes(0, col + from), channels(),
                                to - from, dst_codes.pitch());
  };
  // A sync session re-feeds columns of a window it dedispersed from its
  // own block (skip_chunk()); their clipped samples are counted already.
  const std::size_t first = chunk_index_ * chunk_out_ + filled_;
  const std::size_t seen = std::min(n, counted_ > first ? counted_ - first : 0);
  dedisp::quantize_plane(in(0, seen), *codes_, out(0, seen));
  clipped_ += dedisp::quantize_plane_counting_clipped(in(seen, n), *codes_,
                                                      out(seen, n));
  counted_ = std::max(counted_, first + n);
}

std::size_t OverlapChunker::feed(ConstView2D<float> samples,
                                 std::size_t offset) {
  DDMC_REQUIRE(samples.rows() == channels(), "sample block rows != channels");
  DDMC_REQUIRE(offset <= samples.cols(), "feed offset out of range");
  // Context = chunk being assembled, so a test can corrupt one window feed.
  DDMC_FAILPOINT_CTX("chunker.feed", chunk_index_);
  const std::size_t n =
      std::min(samples.cols() - offset, window_.cols() - filled_);
  if (n == 0) return 0;
  carry_floats();
  if (held_) {
    store(samples, offset, n, lookahead_, lookahead_codes_,
          filled_ - overlap_);
  } else {
    store(samples, offset, n, window_, window_codes_, filled_);
  }
  filled_ += n;
  return n;
}

ConstView2D<float> OverlapChunker::chunk_input() const {
  DDMC_REQUIRE(ready(), "chunk window is not fully assembled");
  DDMC_REQUIRE(!floats_behind_, "the floats are not carried yet");
  return window_.cview();
}

ConstView2D<std::uint8_t> OverlapChunker::chunk_codes() const {
  DDMC_REQUIRE(ready(), "chunk window is not fully assembled");
  DDMC_REQUIRE(has_codes(), "chunker keeps no code mirror");
  return window_codes_;
}

void OverlapChunker::move_floats(std::size_t ahead) {
  for (std::size_t ch = 0; ch < channels(); ++ch) {
    std::memmove(&window_(ch, 0), &window_(ch, chunk_out_),
                 overlap_ * sizeof(float));
    if (ahead > 0) {
      std::memcpy(&window_(ch, overlap_), &lookahead_(ch, 0),
                  ahead * sizeof(float));
    }
  }
}

void OverlapChunker::move_codes(std::size_t ahead) {
  if (!codes_) return;
  for (std::size_t ch = 0; ch < channels(); ++ch) {
    std::memmove(&window_codes_(ch, 0), &window_codes_(ch, chunk_out_),
                 overlap_);
    if (ahead > 0) {
      std::memcpy(&window_codes_(ch, overlap_), &lookahead_codes_(ch, 0),
                  ahead);
    }
  }
}

void OverlapChunker::carry_floats() {
  if (!floats_behind_) return;
  move_floats(*floats_behind_);
  floats_behind_.reset();
}

void OverlapChunker::advance() {
  DDMC_REQUIRE(ready(), "cannot advance before the window is full");
  carry_floats();
  move_floats(0);
  move_codes(0);
  filled_ = overlap_;
  ++chunk_index_;
}

void OverlapChunker::hold() {
  DDMC_REQUIRE(ready(), "cannot hold a window that is not full");
  DDMC_REQUIRE(lookahead_.cols() > 0, "chunker has no lookahead to hold with");
  held_ = true;
  filled_ = overlap_;
  ++chunk_index_;
  carry_floats();
}

void OverlapChunker::release(bool floats) {
  DDMC_REQUIRE(held_, "no window is held");
  carry_floats();
  const std::size_t ahead = filled_ - overlap_;
  move_codes(ahead);
  if (floats || !codes_) {
    move_floats(ahead);
  } else {
    floats_behind_ = ahead;
  }
  held_ = false;
}

void OverlapChunker::load(ConstView2D<float> window) {
  DDMC_REQUIRE(window.rows() == channels() &&
                   window.cols() == window_samples(),
               "loaded window shape != chunk window");
  if (held_) release();
  carry_floats();
  store(window, filled_, window.cols() - filled_, window_, window_codes_,
        filled_);
  filled_ = window_samples();
}

void OverlapChunker::skip_chunk(ConstView2D<float> window) {
  DDMC_REQUIRE(!held_, "cannot skip past a held window");
  DDMC_REQUIRE(window.rows() == channels() &&
                   window.cols() == window_samples(),
               "skipped window shape != chunk window");
  if (codes_) {
    const std::size_t first = chunk_index_ * chunk_out_;
    const std::size_t seen =  // the assembled prefix, or more
        std::min(window.cols(), counted_ > first ? counted_ - first : 0);
    clipped_ += dedisp::count_clipped(
        ConstView2D<float>(&window(0, seen), channels(), window.cols() - seen,
                           window.pitch()),
        *codes_);
    counted_ = first + window.cols();
  }
  filled_ = 0;
  ++chunk_index_;
}

std::size_t OverlapChunker::pending_out() const {
  return filled_ > data_overlap_ ? filled_ - data_overlap_ : 0;
}

ConstView2D<float> OverlapChunker::partial_input() const {
  DDMC_REQUIRE(pending_out() > 0, "no partial chunk is buffered");
  DDMC_REQUIRE(!held_, "release the held window before the partial chunk");
  DDMC_REQUIRE(!floats_behind_, "the floats are not carried yet");
  return ConstView2D<float>(window_.cview().data(), channels(), filled_,
                            window_.pitch());
}

}  // namespace ddmc::stream
