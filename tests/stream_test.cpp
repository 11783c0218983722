// Tests for the streaming subsystem: bounded ring ingest (backpressure),
// overlap-carry chunking, and the streaming sessions — whose headline
// property is that chunked output is *bitwise identical* to the one-shot
// batch path for any chunk size and any feed granularity, down to
// one-sample pushes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "common/expect.hpp"
#include "common/random.hpp"
#include "dedisp/reference.hpp"
#include "engine/engine_config.hpp"
#include "engine/registry.hpp"
#include "stream/chunker.hpp"
#include "stream/latency.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_dedisperser.hpp"
#include "telemetry/metrics.hpp"
#include "probe_engine.hpp"
#include "test_util.hpp"

namespace ddmc::stream {
namespace {

using dedisp::KernelConfig;
using dedisp::Plan;
using testing::ProbeEngine;
using testing::expect_same_matrix;
using testing::mini_obs;
using testing::random_input;
using testing::tiled_config;

/// Feed `input` into `session` in pseudo-random slices of 1..max_slice
/// samples (max_slice = 1 exercises one-sample feeds).
void feed_in_slices(StreamingDedisperser& session,
                    const Array2D<float>& input, std::size_t max_slice,
                    std::uint64_t seed) {
  Rng rng(seed);
  std::size_t t = 0;
  while (t < input.cols()) {
    const std::size_t n = std::min<std::size_t>(
        input.cols() - t,
        1 + static_cast<std::size_t>(rng.next_below(max_slice)));
    session.push(ConstView2D<float>(&input.cview()(0, t), input.rows(), n,
                                    input.pitch()));
    t += n;
  }
}

/// Feed one block that completes the session's first window and carries
/// \p ahead samples beyond it (an async session assembles them in its
/// second window while the engine reads the first), then everything else
/// as one block.
void feed_window_then_rest(StreamingDedisperser& session,
                           const Array2D<float>& input, std::size_t ahead) {
  const std::size_t first = std::min(
      input.cols(), session.chunk_plan().in_samples() + ahead);
  session.push(ConstView2D<float>(input.cview().data(), input.rows(), first,
                                  input.pitch()));
  session.push(ConstView2D<float>(&input.cview()(0, first), input.rows(),
                                  input.cols() - first, input.pitch()));
}

/// Reassemble sink chunks into one dms × total matrix by first_sample.
struct Collector {
  Array2D<float> total;
  std::size_t emitted = 0;

  Collector(std::size_t dms, std::size_t out) : total(dms, out) {}

  void operator()(const StreamChunk& chunk) {
    ASSERT_LE(chunk.first_sample + chunk.out_samples, total.cols());
    for (std::size_t dm = 0; dm < total.rows(); ++dm) {
      for (std::size_t t = 0; t < chunk.out_samples; ++t) {
        total(dm, chunk.first_sample + t) = chunk.output(dm, t);
      }
    }
    emitted += chunk.out_samples;
  }
};

// ------------------------------------------------------------------ ring --

TEST(SampleRing, FifoOrderAcrossWraparound) {
  SampleRing ring(2, 8);
  Array2D<float> block(2, 5);
  Array2D<float> out(2, 3);
  float next = 0.0f;
  float expect = 0.0f;
  std::size_t buffered = 0;
  for (int round = 0; round < 7; ++round) {
    for (std::size_t t = 0; t < block.cols(); ++t) {
      block(0, t) = next;
      block(1, t) = -next;
      next += 1.0f;
    }
    ring.push(block.cview());
    buffered += block.cols();
    // Drain to ≤ 2 buffered samples: the next 5-sample push fits without
    // blocking, and the carried remainder walks head across the wrap.
    while (buffered > 2) {
      const std::size_t n = ring.pop(out.view());
      ASSERT_GT(n, 0u);
      for (std::size_t t = 0; t < n; ++t) {
        ASSERT_EQ(out(0, t), expect);
        ASSERT_EQ(out(1, t), -expect);
        expect += 1.0f;
      }
      buffered -= n;
    }
  }
}

TEST(SampleRing, TryPushIsAllOrNothingAtCapacity) {
  SampleRing ring(1, 8);
  Array2D<float> five(1, 5);
  EXPECT_TRUE(ring.try_push(five.cview()));
  EXPECT_FALSE(ring.try_push(five.cview()));  // only 3 slots free
  EXPECT_EQ(ring.size(), 5u);                 // nothing was absorbed
  Array2D<float> out(1, 2);
  EXPECT_EQ(ring.pop(out.view()), 2u);
  EXPECT_TRUE(ring.try_push(five.cview()));
  EXPECT_EQ(ring.size(), 8u);
}

TEST(SampleRing, BlockingPushEnforcesTheCapacityBound) {
  // A slow consumer: the producer wants to push 4× the capacity and must
  // block; the ring never holds more than its bound.
  SampleRing ring(2, 16);
  const std::size_t total = 64;
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    Array2D<float> block(2, 8);
    for (std::size_t pushed = 0; pushed < total; pushed += block.cols()) {
      for (std::size_t t = 0; t < block.cols(); ++t) {
        block(0, t) = static_cast<float>(pushed + t);
        block(1, t) = 0.5f;
      }
      ring.push(block.cview());
    }
    producer_done = true;
  });

  // Let the producer hit the bound.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(producer_done);       // blocked: 64 > 16 without a consumer
  EXPECT_LE(ring.size(), 16u);       // the bound held

  Array2D<float> out(2, 4);
  std::size_t received = 0;
  float expect = 0.0f;
  while (received < total) {
    const std::size_t n = ring.pop(out.view());
    ASSERT_GT(n, 0u);
    for (std::size_t t = 0; t < n; ++t, expect += 1.0f) {
      ASSERT_EQ(out(0, t), expect);
    }
    received += n;
  }
  producer.join();
  EXPECT_TRUE(producer_done);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SampleRing, CloseDrainsThenSignalsEnd) {
  SampleRing ring(1, 8);
  Array2D<float> three(1, 3);
  three(0, 0) = 1.0f; three(0, 1) = 2.0f; three(0, 2) = 3.0f;
  ring.push(three.cview());
  ring.close();
  Array2D<float> out(1, 8);
  EXPECT_EQ(ring.pop(out.view()), 3u);  // buffered samples still drain
  EXPECT_EQ(out(0, 2), 3.0f);
  EXPECT_EQ(ring.pop(out.view()), 0u);  // then: closed-and-drained
  EXPECT_THROW(ring.push(three.cview()), invalid_argument);
  EXPECT_THROW(ring.try_push(three.cview()), invalid_argument);
}

TEST(SampleRing, RejectsChannelMismatch) {
  SampleRing ring(4, 8);
  Array2D<float> wrong(3, 2);
  EXPECT_THROW(ring.push(wrong.cview()), invalid_argument);
  EXPECT_THROW(ring.pop(wrong.view()), invalid_argument);
}

// --------------------------------------------------------------- chunker --

// ------------------------------------------------------- ring stress --

TEST(SampleRingStressSlowTier, MultipleProducersConserveEverySample) {
  // Multiple producers are memory-safe (each push segment is atomic under
  // the lock even if a blocking push interleaves with another producer's),
  // so under ASan/UBSan this hammers the lock/wait paths: every pushed
  // sample must come out exactly once.
  constexpr std::size_t kChannels = 3;
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 512;
  SampleRing ring(kChannels, 16);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      // Distinct constant value per producer, pushed in awkward slices.
      Array2D<float> block(kChannels, 7);
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        for (auto& v : block.row(ch)) v = static_cast<float>(p + 1);
      }
      std::size_t sent = 0;
      while (sent < kPerProducer) {
        const std::size_t n = std::min<std::size_t>(7, kPerProducer - sent);
        ring.push(ConstView2D<float>(&block.cview()(0, 0), kChannels, n,
                                     block.pitch()));
        sent += n;
      }
    });
  }

  std::size_t popped = 0;
  std::vector<std::size_t> per_value(kProducers, 0);
  Array2D<float> dst(kChannels, 5);
  std::thread closer;
  while (true) {
    const std::size_t n = ring.pop(dst.view());
    if (n == 0) break;
    popped += n;
    for (std::size_t t = 0; t < n; ++t) {
      const auto value = static_cast<std::size_t>(dst(0, t));
      ASSERT_GE(value, 1u);
      ASSERT_LE(value, kProducers);
      ++per_value[value - 1];
      // Columns stay intact: every channel carries the same producer tag.
      for (std::size_t ch = 1; ch < kChannels; ++ch) {
        ASSERT_EQ(dst(ch, t), dst(0, t));
      }
    }
    if (popped == kProducers * kPerProducer && !closer.joinable()) {
      closer = std::thread([&] {
        for (auto& producer : producers) producer.join();
        ring.close();
      });
    }
  }
  closer.join();
  EXPECT_EQ(popped, kProducers * kPerProducer);
  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(per_value[p], kPerProducer) << "producer " << p;
  }
}

TEST(SampleRingStressSlowTier, CloseWhileProducerBlocksMidPushThrows) {
  // A producer blocked on a full ring must be woken by close() and get the
  // "push into a closed SampleRing" error, not deadlock or corrupt state.
  SampleRing ring(2, 8);
  std::atomic<bool> threw{false};
  std::atomic<std::size_t> absorbed_before_close{0};
  std::thread producer([&] {
    Array2D<float> block(2, 64);
    for (std::size_t ch = 0; ch < 2; ++ch) {
      for (auto& v : block.row(ch)) v = 1.0f;
    }
    try {
      ring.push(block.cview());  // capacity 8 < 64: must block mid-push
    } catch (const invalid_argument&) {
      threw = true;
    }
  });
  // Wait until the ring is full, i.e. the producer is blocked inside push.
  while (ring.size() < ring.capacity()) {
    std::this_thread::yield();
  }
  absorbed_before_close = ring.size();
  ring.close();
  producer.join();
  EXPECT_TRUE(threw.load());
  EXPECT_EQ(absorbed_before_close.load(), 8u);

  // Drain-after-close: the samples absorbed before the close are still
  // delivered, then pop signals end-of-stream with 0 forever.
  Array2D<float> dst(2, 3);
  std::size_t drained = 0;
  std::size_t n = 0;
  while ((n = ring.pop(dst.view())) > 0) drained += n;
  EXPECT_EQ(drained, 8u);
  EXPECT_EQ(ring.pop(dst.view()), 0u);
  EXPECT_EQ(ring.pop(dst.view()), 0u);  // end state is sticky
}

TEST(SampleRingStressSlowTier, ConcurrentConsumersDrainAfterClose) {
  // Several consumers racing over a closed ring split the remaining
  // samples between them without loss or duplication, and every one of
  // them eventually observes end-of-stream.
  constexpr std::size_t kChannels = 2;
  constexpr std::size_t kTotal = 1000;
  SampleRing ring(kChannels, kTotal);
  Array2D<float> block(kChannels, kTotal);
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    std::size_t t = 0;
    for (auto& v : block.row(ch)) v = static_cast<float>(t++);
  }
  ring.push(block.cview());
  ring.close();

  std::atomic<std::size_t> drained{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      Array2D<float> dst(kChannels, 7);
      std::size_t n = 0;
      while ((n = ring.pop(dst.view())) > 0) drained += n;
    });
  }
  for (auto& consumer : consumers) consumer.join();
  EXPECT_EQ(drained.load(), kTotal);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(OverlapChunker, WindowsAreTheBatchInputColumns) {
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 128);
  const Plan chunk = batch.with_chunk(32);
  const Array2D<float> input = random_input(batch);
  // Windows alternate between two buffers. Each emitted window stays
  // intact, as an engine on another thread would read it, while the next
  // one's samples arrive in 5-sample feeds behind its carried overlap. The
  // code windows, when kept, hold the codes of exactly those columns.
  const dedisp::QuantizationParams quant{-0.5f, 0.5f};
  struct Planes {
    const char* name;
    bool floats;
    bool codes;
  };
  for (const Planes planes : {Planes{"floats", true, false},
                              Planes{"codes", false, true},
                              Planes{"floats+codes", true, true}}) {
    SCOPED_TRACE(planes.name);
    OverlapChunker chunker(
        chunk, 0,
        planes.codes ? std::optional{quant}
                     : std::optional<dedisp::QuantizationParams>{},
        planes.floats);
    ASSERT_EQ(chunker.has_floats(), planes.floats);
    ASSERT_EQ(chunker.has_codes(), planes.codes);
    EXPECT_EQ(chunker.overlap(), batch.max_delay());
    EXPECT_EQ(chunker.window_samples(), 32 + batch.max_delay());

    // Window k as an engine reads it: batch input columns from k·32 on.
    const auto expect_window = [&](ConstView2D<float> floats,
                                   ConstView2D<std::uint8_t> codes,
                                   std::size_t k) {
      for (std::size_t ch = 0; ch < input.rows(); ++ch) {
        for (std::size_t i = 0; i < chunker.window_samples(); ++i) {
          const float want = input(ch, k * 32 + i);
          if (planes.floats) {
            ASSERT_EQ(floats(ch, i), want)
                << "chunk " << k << " ch " << ch << " i " << i;
          }
          if (planes.codes) {
            ASSERT_EQ(codes(ch, i), quant.quantize(want))
                << "chunk " << k << " ch " << ch << " i " << i;
          }
        }
      }
    };
    ConstView2D<float> lent_floats;
    ConstView2D<std::uint8_t> lent_codes;
    std::size_t t = 0;
    std::size_t seen = 0;
    while (t < input.cols()) {
      const ConstView2D<float> feed(input.cview().data(), input.rows(),
                                    std::min(input.cols(), t + 5),
                                    input.pitch());
      t += chunker.feed(feed, t);
      // The carry into the next window reads the lent one, never writes it.
      if (seen > 0) expect_window(lent_floats, lent_codes, seen - 1);
      if (!chunker.ready()) continue;
      EXPECT_EQ(chunker.chunk_index(), seen);
      EXPECT_EQ(chunker.window(), seen % 2);
      if (planes.floats) {
        lent_floats = chunker.chunk_input();
      } else {
        EXPECT_THROW(chunker.chunk_input(), invalid_argument);
      }
      if (planes.codes) {
        lent_codes = chunker.chunk_codes();
      } else {
        EXPECT_THROW(chunker.chunk_codes(), invalid_argument);
      }
      expect_window(lent_floats, lent_codes, seen);
      ++seen;
      chunker.advance();
      EXPECT_EQ(chunker.window(), seen % 2);
    }
    // 128 output samples = exactly 4 chunks of 32; nothing is left over.
    EXPECT_EQ(seen, 4u);
    EXPECT_EQ(chunker.pending_out(), 0u);
    // Each fed sample outside [-0.5, 0.5] counts once, the carried
    // overlap included.
    std::size_t outside = 0;
    for (std::size_t ch = 0; ch < input.rows(); ++ch) {
      for (const float v : input.row(ch)) outside += v < -0.5f || v > 0.5f;
    }
    EXPECT_EQ(chunker.clipped(), planes.codes ? outside : 0u);

    // A few extra samples become the pending partial chunk, behind the
    // last window's carried overlap: the input's last columns. A session
    // flushes it from the floats or, with code windows, from the codes.
    Array2D<float> extra(input.rows(), 7);
    chunker.feed(extra.cview());
    EXPECT_FALSE(chunker.ready());
    EXPECT_EQ(chunker.pending_out(), 7u);
    const std::size_t tail = input.cols() - chunker.overlap();
    const auto want = [&](std::size_t ch, std::size_t i) {
      return i < chunker.overlap() ? input(ch, tail + i) : 0.0f;
    };
    if (planes.floats) {
      const ConstView2D<float> partial = chunker.partial_input();
      ASSERT_EQ(partial.cols(), chunker.overlap() + 7u);
      for (std::size_t ch = 0; ch < input.rows(); ++ch) {
        for (std::size_t i = 0; i < partial.cols(); ++i) {
          ASSERT_EQ(partial(ch, i), want(ch, i)) << "ch " << ch << " i " << i;
        }
      }
    }
    if (planes.codes) {
      const ConstView2D<std::uint8_t> partial = chunker.partial_codes();
      ASSERT_EQ(partial.cols(), chunker.overlap() + 7u);
      for (std::size_t ch = 0; ch < input.rows(); ++ch) {
        for (std::size_t i = 0; i < partial.cols(); ++i) {
          ASSERT_EQ(partial(ch, i), quant.quantize(want(ch, i)))
              << "ch " << ch << " i " << i;
        }
      }
    }
  }
}

TEST(OverlapChunker, AWindowCompletedAtOnceQuantizesOnlyItsNewColumns) {
  // A block that holds the whole window repeats the assembled prefix:
  // feed() from the prefix's end copies (and quantizes) only the rest.
  // Columns a caller writes in place and commit()s are quantized the
  // same way. The code window ends up with the codes of the whole window
  // either way, and each sample is counted once.
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 96);
  const Plan chunk = batch.with_chunk(32);
  const Array2D<float> input = random_input(batch);
  const dedisp::QuantizationParams quant{-0.5f, 0.5f};
  for (const bool in_place : {false, true}) {
    SCOPED_TRACE(in_place ? "commit" : "feed");
    OverlapChunker chunker(chunk, 0, quant);
    const ConstView2D<float> block(input.cview().data(), input.rows(),
                                   chunker.window_samples(), input.pitch());
    if (in_place) {
      const View2D<float> free = chunker.free_columns();
      ASSERT_EQ(free.cols(), chunker.window_samples());
      for (std::size_t ch = 0; ch < input.rows(); ++ch) {
        for (std::size_t i = 0; i < 11; ++i) free(ch, i) = input(ch, i);
      }
      chunker.commit(11);
    } else {
      chunker.feed(ConstView2D<float>(block.data(), input.rows(), 11,
                                      input.pitch()));
    }
    EXPECT_EQ(chunker.feed(block, chunker.filled()),
              chunker.window_samples() - 11);
    ASSERT_TRUE(chunker.ready());
    const ConstView2D<float> window = chunker.chunk_input();
    const ConstView2D<std::uint8_t> codes = chunker.chunk_codes();
    std::size_t outside = 0;
    for (std::size_t ch = 0; ch < input.rows(); ++ch) {
      for (std::size_t i = 0; i < window.cols(); ++i) {
        ASSERT_EQ(window(ch, i), input(ch, i)) << "ch " << ch << " i " << i;
        ASSERT_EQ(codes(ch, i), quant.quantize(input(ch, i)))
            << "ch " << ch << " i " << i;
        outside += input(ch, i) < -0.5f || input(ch, i) > 0.5f;
      }
    }
    EXPECT_EQ(chunker.clipped(), outside);
  }
}

TEST(OverlapChunker, NoOutputBeforeTheOverlapIsCovered) {
  const Plan chunk = Plan::with_output_samples(mini_obs(), 8, 32);
  OverlapChunker chunker(chunk);
  Array2D<float> few(8, chunker.overlap());  // pure history, no output yet
  chunker.feed(few.cview());
  EXPECT_FALSE(chunker.ready());
  EXPECT_EQ(chunker.pending_out(), 0u);
  EXPECT_THROW(chunker.partial_input(), invalid_argument);
}

TEST(OverlapChunker, RejectsRoundedBatchPlans) {
  // A full-seconds plan pads in_samples beyond out + max_delay; windows
  // built from it would not slide correctly.
  const Plan batch(mini_obs(), 8, /*seconds=*/1);
  if (batch.in_samples() != batch.out_samples() + batch.max_delay()) {
    EXPECT_THROW(OverlapChunker{batch}, invalid_argument);
  }
  EXPECT_NO_THROW(OverlapChunker{batch.with_chunk(25)});
}

// ------------------------------------------------------------------ plan --

TEST(PlanChunk, SharesTheDelayTable) {
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 96);
  const Plan chunk = batch.with_chunk(32);
  EXPECT_EQ(&chunk.delays(), &batch.delays());  // shared, not recomputed
  EXPECT_EQ(chunk.out_samples(), 32u);
  EXPECT_EQ(chunk.in_samples(), 32u + batch.max_delay());
  EXPECT_EQ(chunk.dms(), batch.dms());
  EXPECT_THROW(batch.with_chunk(0), invalid_argument);
}

// ------------------------------------------------------- streaming session --

/// The headline property: for random chunk sizes and feed granularities
/// (including one-sample pushes), concatenated streaming output ==
/// batch output, bitwise — full chunks via the tuned config, the final
/// partial chunk via the 1×1 fallback.
TEST(StreamingDedisperser, BitwiseEqualToBatchAcrossGranularities) {
  const std::size_t total_out = 209;  // 3 full chunks of 64 + partial 17
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const Array2D<float> input = random_input(batch);
  const Array2D<float> expected =
      dedisp::dedisperse_reference(batch, input.cview());

  struct Case {
    std::size_t chunk_out;
    std::size_t max_slice;  // 0: feed_window_then_rest with `ahead`
    bool async;
    std::size_t ahead = 0;
  };
  const std::vector<Case> cases = {
      {64, 1, false},   // one-sample feeds, inline compute
      {64, 17, true},   // ragged feeds, pipelined compute and delivery
      {32, 5, true},
      {96, 201, false}, // slices larger than a chunk
      {32, 300, true},  // slices larger than a window
      {32, 0, true, 20},  // a part-filled next window, then one large block
      {32, 0, false, 20},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("chunk_out=" + std::to_string(c.chunk_out) + " max_slice=" +
                 std::to_string(c.max_slice) + " ahead=" +
                 std::to_string(c.ahead) + (c.async ? " async" : " sync"));
    Collector collect(batch.dms(), total_out);
    StreamingOptions opts;
    opts.async = c.async;
    opts.cpu.threads = 1;
    StreamingDedisperser session(batch.with_chunk(c.chunk_out),
                                 tiled_config(KernelConfig{8, 2, 4, 2}),
                                 std::ref(collect), opts);
    if (c.max_slice == 0) {
      feed_window_then_rest(session, input, c.ahead);
    } else {
      feed_in_slices(session, input, c.max_slice, 1234 + c.chunk_out);
    }
    session.close();
    EXPECT_EQ(collect.emitted, total_out);
    expect_same_matrix(expected, collect.total);
  }
}

TEST(StreamingDedisperser, FlushChunkKeepsThePinnedQuantWindow) {
  // Regression: the flush chunk ran with the empty config, so a u8
  // session with a pinned quant_window quantized its last, partial chunk
  // over the engine's default window. Adapting the session config keeps
  // the window and shrinks only the tile.
  const std::size_t total_out = 209;  // 3 full chunks of 64 + partial 17
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const Array2D<float> input = random_input(batch);
  engine::EngineConfig batch_config;
  batch_config.set("quant_window", 4);  // the engine's default is 8
  const auto engine = engine::make_engine("cpu_tiled_u8");
  Array2D<float> expected(batch.dms(), total_out);
  engine->execute(batch, batch_config, input.cview(), expected.view());
  engine::EngineConfig config = tiled_config(KernelConfig{8, 2, 4, 2});
  config.set("quant_window", 4);

  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    Collector collect(batch.dms(), total_out);
    StreamingOptions opts;
    opts.engine = "cpu_tiled_u8";
    opts.async = async;
    opts.cpu.threads = 1;
    StreamingDedisperser session(batch.with_chunk(64), config,
                                 std::ref(collect), opts);
    feed_in_slices(session, input, 23, 99);
    session.close();
    EXPECT_EQ(collect.emitted, total_out);
    expect_same_matrix(expected, collect.total);
  }
}

TEST(StreamingDedisperser, CountsClippedSamplesOnceAtIngest) {
  // The chunker quantizes each sample once, so the session's
  // quant_clipped_total counts each clipped sample once, however many
  // windows its column is carried through: ±inf, NaN and finite samples
  // outside the ±8 window clip, the window's edges do not. The output
  // stays the batch run's, bitwise.
  const std::size_t total_out = 209;
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  Array2D<float> input = random_input(batch);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Columns 60..80 lie in the overlap of chunks 0 and 1 (chunks of 64).
  const std::vector<std::pair<std::size_t, float>> clipped = {
      {3, inf},   {70, inf},   {150, inf}, {5, -inf},  {75, -inf},
      {9, nan},   {66, nan},   {130, nan}, {200, nan}, {1, 8.5f},
      {64, 1e6f}, {72, -9.0f}, {180, -8.001f}, {220, 100.0f}};
  for (std::size_t k = 0; k < clipped.size(); ++k) {
    input(k % input.rows(), clipped[k].first) = clipped[k].second;
  }
  input(2, 10) = 8.0f;  // on the window's edges: not clipped
  input(3, 68) = -8.0f;
  const auto engine = engine::make_engine("cpu_tiled_u8");
  Array2D<float> expected(batch.dms(), total_out);
  engine->execute(batch, engine::EngineConfig{}, input.cview(),
                  expected.view());

  for (const bool async : {false, true}) {
    // Slices of up to 90 columns let a sync session dedisperse some
    // windows in place and then re-feed part of them to its chunker.
    for (const std::size_t slice :
         {std::size_t{7}, std::size_t{90}, input.cols()}) {
      SCOPED_TRACE(std::string(async ? "async" : "sync") +
                   " slice=" + std::to_string(slice));
      Collector collect(batch.dms(), total_out);
      StreamingOptions opts;
      opts.engine = "cpu_tiled_u8";
      opts.async = async;
      opts.cpu.threads = 1;
      StreamingDedisperser session(batch.with_chunk(64),
                                   engine::EngineConfig{},
                                   std::ref(collect), opts);
      feed_in_slices(session, input, slice, 5);
      session.close();
      expect_same_matrix(expected, collect.total);
      const auto counter = telemetry::MetricsRegistry::instance().counter(
          "ddmc.stream.quant_clipped_total",
          {{"session", session.session_label()}});
      EXPECT_EQ(counter->value(), static_cast<double>(clipped.size()));
    }
  }
}

TEST(StreamingDedisperser, TuneOnFirstUseFromTheCache) {
  // A session built from a TuningCache resolves its config before starting:
  // cold = one guided search on the chunk plan (stored), warm = exact hit
  // with zero measurements. Output stays bitwise equal to batch either way.
  const std::size_t total_out = 128;
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const Array2D<float> input = random_input(batch);
  const Array2D<float> expected =
      dedisp::dedisperse_reference(batch, input.cview());

  tuner::TuningCache cache;
  tuner::GuidedTuningOptions tuning;
  tuning.host.repetitions = 1;
  tuning.host.warmup_runs = 0;
  tuning.strategy = tuner::StrategyKind::kRandom;
  tuning.random_samples = 3;
  StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;

  engine::EngineConfig tuned;
  {
    Collector collect(batch.dms(), total_out);
    StreamingDedisperser session(batch.with_chunk(32), cache,
                                 std::ref(collect), opts, tuning);
    ASSERT_TRUE(session.tuning_outcome().has_value());
    EXPECT_EQ(session.tuning_outcome()->source,
              tuner::GuidedTuningOutcome::Source::kSearch);
    EXPECT_GT(session.tuning_outcome()->configs_evaluated, 0u);
    tuned = session.tuning_outcome()->config;
    feed_in_slices(session, input, 31, 99);
    session.close();
    EXPECT_EQ(collect.emitted, total_out);
    expect_same_matrix(expected, collect.total);
  }
  {
    // Second session of the same shape: tuned without a single measurement.
    Collector collect(batch.dms(), total_out);
    StreamingDedisperser session(batch.with_chunk(32), cache,
                                 std::ref(collect), opts, tuning);
    ASSERT_TRUE(session.tuning_outcome().has_value());
    EXPECT_EQ(session.tuning_outcome()->source,
              tuner::GuidedTuningOutcome::Source::kCacheHit);
    EXPECT_EQ(session.tuning_outcome()->configs_evaluated, 0u);
    EXPECT_EQ(session.tuning_outcome()->config, tuned);
    feed_in_slices(session, input, 31, 99);
    session.close();
    expect_same_matrix(expected, collect.total);
  }
  {
    // A different chunk length is a different plan signature, but close
    // enough to transfer: still zero measurements. (Any tile that divides
    // the 32-sample chunk also divides the 64-sample one.)
    Collector collect(batch.dms(), total_out);
    StreamingDedisperser session(batch.with_chunk(64), cache,
                                 std::ref(collect), opts, tuning);
    ASSERT_TRUE(session.tuning_outcome().has_value());
    EXPECT_EQ(session.tuning_outcome()->source,
              tuner::GuidedTuningOutcome::Source::kTransfer);
    EXPECT_EQ(session.tuning_outcome()->configs_evaluated, 0u);
    feed_in_slices(session, input, 31, 99);
    session.close();
    expect_same_matrix(expected, collect.total);
  }
  // The explicit-config constructor reports no tuning outcome.
  StreamingDedisperser manual(batch.with_chunk(64),
                              tiled_config(KernelConfig{8, 2, 4, 2}),
                              [](const StreamChunk&) {}, opts);
  EXPECT_FALSE(manual.tuning_outcome().has_value());
}

TEST(StreamingDedisperser, AdoptsTheRaceWinnerAndWidensTheOverlap) {
  // A multi-engine tuning race can hand the session a different engine
  // than the one it was configured with. The subband engine declares
  // input_padding = 2: had the session adopted the winner's id but sized
  // the chunker for the *requested* engine, interior chunks would feed
  // zero padding where the subband kernel reads real samples, and chunked
  // output would drift from the batch run of the same engine and config.
  const std::size_t total_out = 128;
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const Array2D<float> input = random_input(batch);
  const Plan chunked = batch.with_chunk(32);

  tuner::TuningCache cache;
  tuner::GuidedTuningOptions tuning;
  tuning.host.repetitions = 1;
  tuning.host.warmup_runs = 0;
  tuning.strategy = tuner::StrategyKind::kRandom;
  tuning.random_samples = 2;
  StreamingOptions opts;
  opts.async = false;
  opts.cpu.threads = 1;
  opts.engine = "cpu_tiled";  // the session *requests* the tiled engine

  // Seed one cache entry per engine via single-engine sessions, then pin
  // the stored seconds so the subband engine wins deterministically and
  // the race itself measures nothing.
  for (const char* id : {"cpu_tiled", "subband"}) {
    StreamingOptions seed_opts = opts;
    seed_opts.engine = id;
    Collector sink(batch.dms(), total_out);
    StreamingDedisperser session(chunked, cache, std::ref(sink), seed_opts,
                                 tuning);
    session.close();
  }
  ASSERT_EQ(cache.size(), 2u);
  for (tuner::CacheEntry entry : cache.entries()) {
    entry.seconds = entry.host.engine_id == "subband" ? 1e-9 : 1.0;
    cache.store(entry);
  }

  tuner::GuidedTuningOptions race = tuning;
  race.engines = {"cpu_tiled", "subband"};
  Collector collect(batch.dms(), total_out);
  engine::EngineConfig winner_config;
  {
    StreamingDedisperser session(chunked, cache, std::ref(collect), opts,
                                 race);
    ASSERT_TRUE(session.tuning_outcome().has_value());
    EXPECT_EQ(session.tuning_outcome()->engine_id, "subband");  // adopted
    EXPECT_EQ(session.tuning_outcome()->source,
              tuner::GuidedTuningOutcome::Source::kCacheHit);
    EXPECT_EQ(session.tuning_outcome()->configs_evaluated, 0u);
    winner_config = session.tuning_outcome()->config;
    feed_in_slices(session, input, 17, 321);
    session.close();
  }
  EXPECT_EQ(collect.emitted, total_out);

  // Batch run of the winning engine under the winning config: the widened
  // carried overlap must make the chunked output bitwise identical.
  const auto subband = engine::make_engine("subband");
  Array2D<float> expected(batch.dms(), batch.out_samples());
  subband->execute(batch, winner_config, input.cview(), expected.view());
  expect_same_matrix(expected, collect.total);
}

TEST(StreamingDedisperser, RandomizedChunkAndFeedProperty) {
  Rng rng(99);
  const std::vector<std::size_t> chunk_sizes = {32, 64, 96, 160};
  // Rounds 0–3 alternate sync and async sessions on small slices; rounds
  // 4–7 are async on slices up to three windows long, the odd ones a
  // part-filled next window followed by one large block.
  for (int round = 0; round < 8; ++round) {
    const std::size_t total_out =
        64 + static_cast<std::size_t>(rng.next_below(160));
    const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
    const Array2D<float> input = random_input(batch, 100 + round);
    const Array2D<float> expected =
        dedisp::dedisperse_reference(batch, input.cview());

    const std::size_t chunk_out =
        chunk_sizes[rng.next_below(chunk_sizes.size())];
    const std::size_t window = batch.with_chunk(chunk_out).in_samples();
    const bool large = round >= 4;
    const std::size_t max_slice =
        1 + static_cast<std::size_t>(rng.next_below(large ? 3 * window : 40));
    const std::size_t ahead =
        1 + static_cast<std::size_t>(rng.next_below(chunk_out - 1));
    const bool window_then_rest = large && round % 2 == 1;
    SCOPED_TRACE("total_out=" + std::to_string(total_out) + " chunk_out=" +
                 std::to_string(chunk_out) + " max_slice=" +
                 std::to_string(max_slice) +
                 (window_then_rest ? " ahead=" + std::to_string(ahead) : ""));

    Collector collect(batch.dms(), total_out);
    StreamingOptions opts;
    opts.async = large || round % 2 == 0;
    opts.cpu.threads = 1;
    StreamingDedisperser session(batch.with_chunk(chunk_out),
                                 tiled_config(KernelConfig{8, 2, 4, 2}),
                                 std::ref(collect), opts);
    if (window_then_rest) {
      feed_window_then_rest(session, input, ahead);
    } else {
      feed_in_slices(session, input, max_slice, 777 + round);
    }
    session.close();
    EXPECT_EQ(collect.emitted, total_out);
    expect_same_matrix(expected, collect.total);
  }
}

TEST(StreamingDedisperser, ConsumesARingEndToEnd) {
  const std::size_t total_out = 128;
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const Array2D<float> input = random_input(batch, 42);
  const Array2D<float> expected =
      dedisp::dedisperse_reference(batch, input.cview());

  SampleRing ring(batch.channels(), 48);  // smaller than one window
  Collector collect(batch.dms(), total_out);
  StreamingOptions opts;
  opts.cpu.threads = 1;
  StreamingDedisperser session(batch.with_chunk(64),
                               tiled_config(KernelConfig{8, 2, 4, 2}),
                               std::ref(collect), opts);

  std::thread producer([&] {
    Rng rng(5);
    std::size_t t = 0;
    while (t < input.cols()) {
      const std::size_t n = std::min<std::size_t>(
          input.cols() - t, 1 + static_cast<std::size_t>(rng.next_below(13)));
      ring.push(ConstView2D<float>(&input.cview()(0, t), input.rows(), n,
                                   input.pitch()));
      t += n;
    }
    ring.close();
  });
  session.consume(ring);
  producer.join();
  session.close();
  EXPECT_EQ(collect.emitted, total_out);
  expect_same_matrix(expected, collect.total);
}

TEST(StreamingDedisperser, AttachesDetectionsAndLatency) {
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 128);
  const Array2D<float> input = random_input(batch);
  std::size_t with_detection = 0;
  StreamingOptions opts;
  opts.detect = true;
  opts.cpu.threads = 1;
  StreamingDedisperser session(
      batch.with_chunk(64), tiled_config(KernelConfig{8, 2, 4, 2}),
      [&](const StreamChunk& chunk) {
        if (chunk.detection.has_value()) ++with_detection;
        EXPECT_GT(chunk.timing.data_seconds, 0.0);
        EXPECT_GE(chunk.timing.latency_seconds, 0.0);
      },
      opts);
  session.push(input.cview());
  session.close();
  EXPECT_EQ(session.chunks_emitted(), 2u);
  EXPECT_EQ(with_detection, 2u);

  const LatencyReport report = session.latency();
  EXPECT_EQ(report.chunks, 2u);
  EXPECT_NEAR(report.data_seconds, 128.0 / 100.0, 1e-12);
  EXPECT_LE(report.p50_latency, report.p95_latency);
  EXPECT_LE(report.p95_latency, report.p99_latency);
  EXPECT_LE(report.p99_latency, report.max_latency);
  EXPECT_GT(report.real_time_margin, 0.0);
  EXPECT_NEAR(report.seconds_per_data_second * report.real_time_margin, 1.0,
              1e-9);
}

TEST(StreamingDedisperser, SinkFailuresSurfaceOnClose) {
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 128);
  const Array2D<float> input = random_input(batch);
  StreamingOptions opts;
  opts.cpu.threads = 1;
  StreamingDedisperser session(
      batch.with_chunk(64), tiled_config(KernelConfig{8, 2, 4, 2}),
      [](const StreamChunk&) { throw std::runtime_error("sink failed"); },
      opts);
  EXPECT_THROW(
      {
        session.push(input.cview());
        session.close();
      },
      std::runtime_error);
}

TEST(StreamingDedisperser, ValidatesConfigAndInput) {
  const Plan chunk = Plan::with_output_samples(mini_obs(), 8, 64);
  EXPECT_THROW(
      StreamingDedisperser(chunk, tiled_config(KernelConfig{5, 1, 1, 1}),
                           nullptr),
      config_error);
  StreamingDedisperser session(chunk, tiled_config(KernelConfig{8, 2, 4, 2}),
                               nullptr);
  Array2D<float> wrong(3, 10);
  EXPECT_THROW(session.push(wrong.cview()), invalid_argument);
}

// -------------------------------------------------------------- pipeline --

TEST(StreamingPipeline, NextChunkDedispersesWhileTheSinkRuns) {
  ProbeEngine::install();
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 128);
  const Array2D<float> input = random_input(batch);
  const Array2D<float> expected =
      dedisp::dedisperse_reference(batch, input.cview());
  StreamingOptions opts;
  opts.engine = ProbeEngine::kId;
  opts.cpu.threads = 1;
  Collector collect(batch.dms(), batch.out_samples());
  bool overlapped = false;
  StreamingDedisperser session(
      batch.with_chunk(32), engine::EngineConfig{},
      [&](const StreamChunk& chunk) {
        // Chunk 0's sink waits for chunk 1's engine to start; a session
        // that runs the engine and the sink in series times out here.
        if (chunk.index == 0) {
          overlapped =
              ProbeEngine::wait_started(2, std::chrono::seconds(5));
        }
        collect(chunk);
      },
      opts);
  session.push(input.cview());
  session.close();
  EXPECT_TRUE(overlapped)
      << "chunk 1 did not start dedispersing while chunk 0 was delivered";
  EXPECT_EQ(collect.emitted, batch.out_samples());
  expect_same_matrix(expected, collect.total);
}

TEST(StreamingPipeline, NextWindowIsAssembledWhileTheEngineRuns) {
  // Execution 1 sleeps 300 ms. The samples of windows 0 and 1, pushed one
  // column at a time, are all absorbed meanwhile: window 1 is assembled in
  // the chunker's other window, its carried overlap read from window 0 as
  // the engine reads it, and waits in the job slot, so execution 2 starts
  // as soon as execution 1 ends, without a further push.
  ProbeEngine::install();
  ProbeEngine::slow_down(1, std::chrono::milliseconds(300));
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 64);
  const Array2D<float> input = random_input(batch);
  const Array2D<float> expected =
      dedisp::dedisperse_reference(batch, input.cview());
  StreamingOptions opts;
  opts.engine = ProbeEngine::kId;
  opts.cpu.threads = 1;
  Collector collect(batch.dms(), batch.out_samples());
  StreamingDedisperser session(batch.with_chunk(32), engine::EngineConfig{},
                               std::ref(collect), opts);
  ASSERT_EQ(input.cols(), session.chunk_plan().in_samples() + 32);
  for (std::size_t t = 0; t < input.cols(); ++t) {
    session.push(ConstView2D<float>(&input.cview()(0, t), input.rows(), 1,
                                    input.pitch()));
  }
  EXPECT_TRUE(ProbeEngine::wait_started(1, std::chrono::seconds(5)));
  EXPECT_EQ(ProbeEngine::finished(), 0u)
      << "push() waited for execution 1 to end";
  EXPECT_TRUE(ProbeEngine::wait_started(2, std::chrono::seconds(5)))
      << "window 1 did not reach the engine without a further push";
  session.close();
  EXPECT_EQ(ProbeEngine::finished(), 2u);
  EXPECT_EQ(collect.emitted, batch.out_samples());
  expect_same_matrix(expected, collect.total);
}

TEST(StreamingPipeline, SinkCallsAreSerializedAndInChunkOrder) {
  const std::size_t total_out = 12 * 32 + 9;  // 12 full chunks + partial
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const Array2D<float> input = random_input(batch, 21);
  const Array2D<float> expected =
      dedisp::dedisperse_reference(batch, input.cview());
  StreamingOptions opts;
  opts.detect = true;
  opts.cpu.threads = 1;
  Collector collect(batch.dms(), total_out);
  std::atomic<bool> in_sink{false};
  std::atomic<bool> overlapped{false};
  std::vector<std::size_t> indices;
  StreamingDedisperser session(
      batch.with_chunk(32), tiled_config(KernelConfig{8, 2, 4, 2}),
      [&](const StreamChunk& chunk) {
        if (in_sink.exchange(true)) overlapped = true;
        indices.push_back(chunk.index);
        collect(chunk);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        in_sink = false;
      },
      opts);
  feed_in_slices(session, input, 23, 5);
  session.close();
  EXPECT_FALSE(overlapped);
  std::vector<std::size_t> in_order(13);
  for (std::size_t i = 0; i < in_order.size(); ++i) in_order[i] = i;
  EXPECT_EQ(indices, in_order);
  EXPECT_EQ(collect.emitted, total_out);
  expect_same_matrix(expected, collect.total);
}

TEST(StreamingPipeline, SinkFailureDeliversNoLaterChunk) {
  ProbeEngine::install();
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, 6 * 32);
  const Array2D<float> input = random_input(batch);
  StreamingOptions opts;
  opts.engine = ProbeEngine::kId;
  opts.cpu.threads = 1;
  std::vector<std::size_t> indices;
  StreamingDedisperser session(
      batch.with_chunk(32), engine::EngineConfig{},
      [&](const StreamChunk& chunk) {
        indices.push_back(chunk.index);
        if (chunk.index != 1) return;
        // Fail once chunk 2 is already dedispersing, so it is ready to be
        // delivered when the failure latches.
        ProbeEngine::wait_started(3, std::chrono::seconds(5));
        throw std::runtime_error("sink failed on chunk 1");
      },
      opts);
  try {
    feed_in_slices(session, input, 40, 11);
  } catch (const std::runtime_error&) {
    // push() may already rethrow the latched failure.
  }
  EXPECT_THROW(session.close(), std::runtime_error);
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(session.chunks_emitted(), 1u);
}

// ------------------------------------------------------------ multi-beam --

/// Every beam's random input (seeds \p seed, \p seed + 1, …) for \p plan.
std::vector<Array2D<float>> beam_inputs(const Plan& plan, std::size_t beams,
                                        std::uint64_t seed) {
  std::vector<Array2D<float>> inputs;
  for (std::size_t b = 0; b < beams; ++b) {
    inputs.push_back(random_input(plan, seed + b));
  }
  return inputs;
}

/// Feed \p input to a session of \p options in ragged slices and collect
/// each beam's output.
testing::BeamCollector stream_beams(const Plan& chunk_plan,
                                    const engine::EngineConfig& config,
                                    const StreamingOptions& options,
                                    const Array2D<float>& input,
                                    std::size_t total_out) {
  testing::BeamCollector collect(options.beams, chunk_plan.dms(), total_out);
  StreamingDedisperser session(chunk_plan, config, std::ref(collect),
                               options);
  feed_in_slices(session, input, 23, options.beams);
  session.close();
  return collect;
}

TEST(BeamStreaming, EachBeamBitwiseEqualToBatch) {
  const std::size_t total_out = 145;  // 2 full chunks of 64 + partial 17
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const std::size_t beams = 3;
  const std::vector<Array2D<float>> inputs = beam_inputs(batch, beams, 10);

  testing::BeamCollector collect(beams, batch.dms(), total_out);
  std::size_t detections = 0;
  StreamingOptions opts;
  opts.beams = beams;
  opts.detect = true;
  opts.cpu.threads = 1;
  StreamingDedisperser session(
      batch.with_chunk(64), tiled_config(KernelConfig{8, 2, 4, 2}),
      [&](const StreamChunk& chunk) {
        if (chunk.detection) ++detections;
        collect(chunk);
      },
      opts);
  EXPECT_EQ(session.beams(), beams);
  feed_in_slices(session, testing::stack_beams(inputs), 23, 3);
  session.close();

  EXPECT_EQ(collect.calls, 3 * beams);
  EXPECT_EQ(detections, 3 * beams);
  EXPECT_EQ(session.chunks_emitted(), 3u);
  EXPECT_EQ(session.latency().chunks, 3u);
  for (std::size_t b = 0; b < beams; ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    expect_same_matrix(dedisp::dedisperse_reference(batch, inputs[b].cview()),
                       collect.totals[b]);
  }
}

TEST(BeamStreaming, EachBeamMatchesASingleBeamSession) {
  // Sync and async sessions, float and code windows, sharded and unsharded
  // full chunks; the flush chunk (17 samples) of every one.
  const std::size_t total_out = 81;
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const Plan chunk = batch.with_chunk(32);
  const engine::EngineConfig config = tiled_config(KernelConfig{8, 2, 4, 2});
  const std::size_t beams = 3;
  const std::vector<Array2D<float>> inputs = beam_inputs(batch, beams, 60);
  const Array2D<float> stacked = testing::stack_beams(inputs);
  for (const bool async : {false, true}) {
    for (const char* engine : {"cpu_tiled", "cpu_tiled_u8"}) {
      for (const std::size_t shard_workers : {0ul, 3ul}) {
        SCOPED_TRACE(std::string(engine) + (async ? " async" : " sync") +
                     " shard_workers=" + std::to_string(shard_workers));
        StreamingOptions opts;
        opts.engine = engine;
        opts.async = async;
        opts.shard_workers = shard_workers;
        opts.cpu.threads = 1;
        opts.beams = beams;
        const testing::BeamCollector all =
            stream_beams(chunk, config, opts, stacked, total_out);
        EXPECT_EQ(all.calls, 3 * beams);
        opts.beams = 1;
        for (std::size_t b = 0; b < beams; ++b) {
          SCOPED_TRACE("beam " + std::to_string(b));
          const testing::BeamCollector one =
              stream_beams(chunk, config, opts, inputs[b], total_out);
          expect_same_matrix(one.totals[0], all.totals[b]);
        }
      }
    }
  }
}

TEST(BeamStreaming, AsyncU8SessionConsumesAStackedRingLikeOneSessionPerBeam) {
  const std::size_t total_out = 150;  // 4 full chunks of 32 + flush of 22
  const Plan batch = Plan::with_output_samples(mini_obs(), 8, total_out);
  const Plan chunk = batch.with_chunk(32);
  const engine::EngineConfig config = tiled_config(KernelConfig{8, 2, 4, 2});
  const std::size_t beams = 3;
  const std::vector<Array2D<float>> inputs = beam_inputs(batch, beams, 40);
  const Array2D<float> stacked = testing::stack_beams(inputs);

  StreamingOptions opts;
  opts.engine = "cpu_tiled_u8";
  opts.cpu.threads = 1;
  opts.beams = beams;
  testing::BeamCollector all(beams, batch.dms(), total_out);
  SampleRing ring(stacked.rows(), 40);
  StreamingDedisperser session(chunk, config, std::ref(all), opts);
  std::thread producer([&] {
    Rng rng(5);
    for (std::size_t t = 0; t < stacked.cols();) {
      const std::size_t n = std::min<std::size_t>(
          stacked.cols() - t, 1 + static_cast<std::size_t>(rng.next_below(29)));
      ring.push(ConstView2D<float>(&stacked.cview()(0, t), stacked.rows(), n,
                                   stacked.pitch()));
      t += n;
    }
    ring.close();
  });
  session.consume(ring);
  producer.join();
  session.close();
  EXPECT_EQ(session.chunks_emitted(), 5u);
  EXPECT_EQ(all.calls, 5 * beams);

  opts.beams = 1;
  for (std::size_t b = 0; b < beams; ++b) {
    SCOPED_TRACE("beam " + std::to_string(b));
    const testing::BeamCollector one =
        stream_beams(chunk, config, opts, inputs[b], total_out);
    expect_same_matrix(one.totals[0], all.totals[b]);
  }
}

TEST(BeamStreaming, RejectsBlocksRingsAndBeamCountsThatDoNotStack) {
  const Plan chunk = Plan::with_output_samples(mini_obs(), 8, 64);
  const engine::EngineConfig config = tiled_config(KernelConfig{8, 2, 4, 2});
  StreamingOptions opts;
  opts.beams = 2;
  StreamingDedisperser session(chunk, config, nullptr, opts);
  const Array2D<float> one_beam(8, 10);
  const Array2D<float> three_beams(24, 10);
  EXPECT_THROW(session.push(one_beam.cview()), invalid_argument);
  EXPECT_THROW(session.push(three_beams.cview()), invalid_argument);
  SampleRing one_beam_ring(8, 16);
  EXPECT_THROW(session.consume(one_beam_ring), invalid_argument);
  const Array2D<float> two_beams(16, 10);
  EXPECT_NO_THROW(session.push(two_beams.cview()));
  opts.beams = 0;
  EXPECT_THROW(StreamingDedisperser(chunk, config, nullptr, opts),
               invalid_argument);
}

// --------------------------------------------------------------- latency --

TEST(Latency, PercentilesUseNearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 95.0), 95.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_THROW(percentile(std::vector<double>{}, 50.0), invalid_argument);
  EXPECT_THROW(percentile(v, 101.0), invalid_argument);
}

TEST(Latency, TrackerAggregatesMarginAndBusyTime) {
  LatencyTracker tracker;
  EXPECT_EQ(tracker.report().chunks, 0u);
  tracker.record({1.0, 0.25, 0.3});
  tracker.record({1.0, 0.25, 0.5});
  const LatencyReport r = tracker.report();
  EXPECT_EQ(r.chunks, 2u);
  EXPECT_EQ(r.latency_window, 2u);
  EXPECT_DOUBLE_EQ(r.data_seconds, 2.0);
  EXPECT_DOUBLE_EQ(r.compute_seconds, 0.5);
  EXPECT_DOUBLE_EQ(r.real_time_margin, 4.0);  // 2 s of sky in 0.5 s busy
  EXPECT_DOUBLE_EQ(r.seconds_per_data_second, 0.25);
  EXPECT_DOUBLE_EQ(r.p50_latency, 0.3);
  EXPECT_DOUBLE_EQ(r.max_latency, 0.5);
  EXPECT_DOUBLE_EQ(r.mean_compute, 0.25);
}

TEST(Latency, TrackerStaysExactBelowItsCapacity) {
  // Below the cap the percentiles match a full nearest-rank scan exactly.
  LatencyTracker tracker(/*capacity=*/256);
  std::vector<double> all;
  for (int i = 100; i >= 1; --i) {
    const double v = static_cast<double>(i) * 1e-3;
    tracker.record({0.1, 0.01, v});
    all.push_back(v);
  }
  const LatencyReport r = tracker.report();
  EXPECT_EQ(r.chunks, 100u);
  EXPECT_EQ(r.latency_window, 100u);
  EXPECT_DOUBLE_EQ(r.p50_latency, percentile(all, 50.0));
  EXPECT_DOUBLE_EQ(r.p95_latency, percentile(all, 95.0));
  EXPECT_DOUBLE_EQ(r.p99_latency, percentile(all, 99.0));
  EXPECT_DOUBLE_EQ(r.max_latency, 0.1);
}

TEST(Latency, TrackerWindowsInsteadOfGrowingWithoutBound) {
  // Regression: latencies_ used to grow by one double per chunk forever —
  // a long-running session leaked memory and report() re-sorted an
  // ever-larger vector per poll. Past the cap the tracker must keep a
  // trailing window of exactly `capacity` latencies...
  constexpr std::size_t kCapacity = 64;
  LatencyTracker tracker(kCapacity);
  for (std::size_t i = 0; i < 10 * kCapacity; ++i) {
    tracker.record({1.0, 0.5, 100.0});  // old spike, must age out
  }
  std::vector<double> window;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    const double v = static_cast<double>(i + 1) * 1e-3;
    tracker.record({1.0, 0.5, v});
    window.push_back(v);
  }
  const LatencyReport r = tracker.report();
  EXPECT_EQ(r.chunks, 11 * kCapacity);  // totals still span the session
  EXPECT_EQ(r.latency_window, kCapacity);
  // ...whose percentiles are exact over that window (the spikes aged out)…
  EXPECT_DOUBLE_EQ(r.p50_latency, percentile(window, 50.0));
  EXPECT_DOUBLE_EQ(r.p99_latency, percentile(window, 99.0));
  // …while the scalar aggregates still cover the whole session.
  EXPECT_DOUBLE_EQ(r.max_latency, 100.0);
  EXPECT_DOUBLE_EQ(r.data_seconds, 11.0 * kCapacity);
  EXPECT_DOUBLE_EQ(r.real_time_margin, 2.0);

  EXPECT_THROW(LatencyTracker{0}, invalid_argument);
}

TEST(Latency, SortedPercentileBacksTheUnsortedOne) {
  // percentile() and report() share one nearest-rank kernel (the former
  // copy-pasted lambda); feeding it pre-sorted data must agree.
  std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0};
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 10.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, p), percentile(v, p)) << p;
  }
}

}  // namespace
}  // namespace ddmc::stream
