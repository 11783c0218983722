#include "stream/chunker.hpp"

#include <algorithm>
#include <cstring>

#include "common/expect.hpp"
#include "resilience/fault_injection.hpp"

namespace ddmc::stream {

OverlapChunker::OverlapChunker(const dedisp::Plan& chunk_plan,
                               std::size_t extra_overlap, bool lookahead)
    : window_(chunk_plan.channels(), chunk_plan.in_samples() + extra_overlap),
      chunk_out_(chunk_plan.out_samples()),
      overlap_(chunk_plan.max_delay() + extra_overlap),
      data_overlap_(chunk_plan.max_delay()) {
  DDMC_REQUIRE(chunk_plan.in_samples() == chunk_out_ + chunk_plan.max_delay(),
               "chunk plan must be unrounded: in = out + max_delay "
               "(use Plan::with_chunk or Plan::with_output_samples)");
  if (lookahead) lookahead_ = Array2D<float>(channels(), chunk_out_);
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
  Array2D<float>& dst = held_ ? lookahead_ : window_;
  const std::size_t col = held_ ? filled_ - overlap_ : filled_;
  for (std::size_t ch = 0; ch < channels(); ++ch) {
    std::memcpy(&dst(ch, col), &samples(ch, offset), n * sizeof(float));
  }
  filled_ += n;
  return n;
}

ConstView2D<float> OverlapChunker::chunk_input() const {
  DDMC_REQUIRE(ready(), "chunk window is not fully assembled");
  return window_.cview();
}

void OverlapChunker::advance() {
  DDMC_REQUIRE(ready(), "cannot advance before the window is full");
  for (std::size_t ch = 0; ch < channels(); ++ch) {
    std::memmove(&window_(ch, 0), &window_(ch, chunk_out_),
                 overlap_ * sizeof(float));
  }
  filled_ = overlap_;
  ++chunk_index_;
}

void OverlapChunker::hold() {
  DDMC_REQUIRE(ready(), "cannot hold a window that is not full");
  DDMC_REQUIRE(lookahead_.cols() > 0, "chunker has no lookahead to hold with");
  held_ = true;
  filled_ = overlap_;
  ++chunk_index_;
}

void OverlapChunker::release() {
  DDMC_REQUIRE(held_, "no window is held");
  const std::size_t ahead = filled_ - overlap_;
  for (std::size_t ch = 0; ch < channels(); ++ch) {
    std::memmove(&window_(ch, 0), &window_(ch, chunk_out_),
                 overlap_ * sizeof(float));
    std::memcpy(&window_(ch, overlap_), &lookahead_(ch, 0),
                ahead * sizeof(float));
  }
  held_ = false;
}

void OverlapChunker::load(ConstView2D<float> window) {
  DDMC_REQUIRE(window.rows() == channels() &&
                   window.cols() == window_samples(),
               "loaded window shape != chunk window");
  for (std::size_t ch = 0; ch < channels(); ++ch) {
    std::memcpy(&window_(ch, 0), &window(ch, 0),
                window.cols() * sizeof(float));
  }
  filled_ = window_samples();
  held_ = false;
}

void OverlapChunker::skip_chunk() {
  DDMC_REQUIRE(!held_, "cannot skip past a held window");
  filled_ = 0;
  ++chunk_index_;
}

std::size_t OverlapChunker::pending_out() const {
  return filled_ > data_overlap_ ? filled_ - data_overlap_ : 0;
}

ConstView2D<float> OverlapChunker::partial_input() const {
  DDMC_REQUIRE(pending_out() > 0, "no partial chunk is buffered");
  DDMC_REQUIRE(!held_, "release the held window before the partial chunk");
  return ConstView2D<float>(window_.cview().data(), channels(), filled_,
                            window_.pitch());
}

}  // namespace ddmc::stream
