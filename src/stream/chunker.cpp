#include "stream/chunker.hpp"

#include <algorithm>
#include <cstring>

#include "common/expect.hpp"
#include "resilience/fault_injection.hpp"

namespace ddmc::stream {

OverlapChunker::OverlapChunker(
    const dedisp::Plan& chunk_plan, std::size_t extra_overlap,
    std::optional<dedisp::QuantizationParams> codes, bool floats,
    std::size_t beams)
    : rows_(beams * chunk_plan.channels()),
      quant_(codes),
      chunk_out_(chunk_plan.out_samples()),
      overlap_(chunk_plan.max_delay() + extra_overlap),
      data_overlap_(chunk_plan.max_delay()) {
  DDMC_REQUIRE(chunk_plan.in_samples() == chunk_out_ + chunk_plan.max_delay(),
               "chunk plan must be unrounded: in = out + max_delay "
               "(use Plan::with_chunk or Plan::with_output_samples)");
  DDMC_REQUIRE(floats || codes, "chunker must keep floats or codes");
  DDMC_REQUIRE(beams > 0, "need at least one beam");
  for (std::size_t w = 0; w < 2; ++w) {
    if (floats) {
      floats_[w] = float_storage_[w].matrix(rows_, window_samples());
    }
    if (codes) {
      codes_[w] = code_storage_[w].matrix(rows_, window_samples());
    }
  }
}

void OverlapChunker::carry() {
  if (!carry_) return;
  carry_ = false;
  const std::size_t prev = cur_ ^ 1;
  for (std::size_t ch = 0; ch < rows_; ++ch) {
    if (has_floats()) {
      std::memcpy(&floats_[cur_](ch, 0), &floats_[prev](ch, chunk_out_),
                  overlap_ * sizeof(float));
    }
    if (has_codes()) {
      std::memcpy(&codes_[cur_](ch, 0), &codes_[prev](ch, chunk_out_),
                  overlap_);
    }
  }
}

void OverlapChunker::quantize(ConstView2D<float> samples, std::size_t offset,
                              std::size_t n) {
  const auto in = [&](std::size_t from, std::size_t to) {
    return ConstView2D<float>(&samples(0, offset + from), rows_,
                              to - from, samples.pitch());
  };
  const auto out = [&](std::size_t from, std::size_t to) {
    return View2D<std::uint8_t>(&codes_[cur_](0, filled_ + from), rows_,
                                to - from, codes_[cur_].pitch());
  };
  // A sync session re-feeds columns of a window it dedispersed from its
  // own block (skip_chunk()); their clipped samples are counted already.
  const std::size_t first = chunk_index_ * chunk_out_ + filled_;
  const std::size_t seen = std::min(n, counted_ > first ? counted_ - first : 0);
  dedisp::quantize_plane(in(0, seen), *quant_, out(0, seen));
  clipped_ += dedisp::quantize_plane_counting_clipped(in(seen, n), *quant_,
                                                      out(seen, n));
  counted_ = std::max(counted_, first + n);
}

std::size_t OverlapChunker::feed(ConstView2D<float> samples,
                                 std::size_t offset) {
  DDMC_REQUIRE(samples.rows() == rows_,
               "sample block rows != beams × channels");
  DDMC_REQUIRE(offset <= samples.cols(), "feed offset out of range");
  // Context = chunk being assembled, so a test can corrupt one window feed.
  DDMC_FAILPOINT_CTX("chunker.feed", chunk_index_);
  const std::size_t n =
      std::min(samples.cols() - offset, window_samples() - filled_);
  if (n == 0) return 0;
  carry();
  if (has_floats()) {
    for (std::size_t ch = 0; ch < rows_; ++ch) {
      std::memcpy(&floats_[cur_](ch, filled_), &samples(ch, offset),
                  n * sizeof(float));
    }
  }
  if (has_codes()) quantize(samples, offset, n);
  filled_ += n;
  return n;
}

View2D<float> OverlapChunker::free_columns() {
  DDMC_REQUIRE(has_floats(), "chunker keeps no float window");
  carry();
  return View2D<float>(&floats_[cur_](0, filled_), rows_,
                       window_samples() - filled_, floats_[cur_].pitch());
}

void OverlapChunker::commit(std::size_t n) {
  DDMC_REQUIRE(has_floats(), "chunker keeps no float window");
  DDMC_REQUIRE(n <= window_samples() - filled_, "commit past the window");
  DDMC_FAILPOINT_CTX("chunker.feed", chunk_index_);
  if (n == 0) return;
  if (has_codes()) quantize(floats_[cur_], filled_, n);
  filled_ += n;
}

ConstView2D<float> OverlapChunker::chunk_input() const {
  DDMC_REQUIRE(ready(), "chunk window is not fully assembled");
  DDMC_REQUIRE(has_floats(), "chunker keeps no float window");
  return floats_[cur_];
}

ConstView2D<std::uint8_t> OverlapChunker::chunk_codes() const {
  DDMC_REQUIRE(ready(), "chunk window is not fully assembled");
  DDMC_REQUIRE(has_codes(), "chunker keeps no code window");
  return codes_[cur_];
}

void OverlapChunker::advance() {
  DDMC_REQUIRE(ready(), "cannot advance before the window is full");
  cur_ ^= 1;
  carry_ = true;
  filled_ = overlap_;
  ++chunk_index_;
}

void OverlapChunker::skip_chunk(ConstView2D<float> window) {
  DDMC_REQUIRE(window.rows() == rows_ &&
                   window.cols() == window_samples(),
               "skipped window shape != chunk window");
  if (has_codes()) {
    const std::size_t first = chunk_index_ * chunk_out_;
    const std::size_t seen =  // the assembled prefix, or more
        std::min(window.cols(), counted_ > first ? counted_ - first : 0);
    clipped_ += dedisp::count_clipped(
        ConstView2D<float>(&window(0, seen), rows_, window.cols() - seen,
                           window.pitch()),
        *quant_);
    counted_ = first + window.cols();
  }
  carry_ = false;
  filled_ = 0;
  ++chunk_index_;
}

std::size_t OverlapChunker::pending_out() const {
  return filled_ > data_overlap_ ? filled_ - data_overlap_ : 0;
}

ConstView2D<float> OverlapChunker::partial_input() {
  DDMC_REQUIRE(pending_out() > 0, "no partial chunk is buffered");
  DDMC_REQUIRE(has_floats(), "chunker keeps no float window");
  carry();
  return ConstView2D<float>(floats_[cur_].data(), rows_, filled_,
                            floats_[cur_].pitch());
}

ConstView2D<std::uint8_t> OverlapChunker::partial_codes() {
  DDMC_REQUIRE(pending_out() > 0, "no partial chunk is buffered");
  DDMC_REQUIRE(has_codes(), "chunker keeps no code window");
  carry();
  return ConstView2D<std::uint8_t>(codes_[cur_].data(), rows_, filled_,
                                   codes_[cur_].pitch());
}

}  // namespace ddmc::stream
