#include "support/codec.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "support/error.hpp"
#include "support/strings.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace ac {

namespace {

// --- RLE token layout (PackBits-style) --------------------------------------
// control c in [0x00, 0x7F]: literal run, c+1 bytes follow;
// control c in [0x80, 0xFF]: repeated byte, length (c - 0x80) + kRleMinRun,
//                            followed by the single value byte.
// A run token costs 2 bytes, so runs shorter than 3 stay literal; the worst
// case (no runs at all) expands by 1 byte per 128.
constexpr std::size_t kRleMinRun = 3;
constexpr std::size_t kRleMaxRun = 0x7F + kRleMinRun;  // 130
constexpr std::size_t kRleMaxLiteral = 0x80;           // 128

// --- LZ token layout --------------------------------------------------------
// control c in [0x00, 0x7F]: literal run, c+1 bytes follow;
// control c in [0x80, 0xFF]: match of length (c & 0x7F) + kLzMinMatch against
//                            the u16-LE distance that follows (1..65535 back).
constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = 0x7F + kLzMinMatch;  // 131
constexpr std::size_t kLzMaxLiteral = 0x80;
constexpr std::size_t kLzWindow = 0xFFFF;
constexpr std::size_t kLzHashBits = 15;

// Decode copy passes move short tokens with one fixed 16-byte (literals,
// matches) or 32-byte (runs) store instead of a variable-length call, so the
// output carries this much writable slack past its end while they run.
constexpr std::size_t kCopySlack = 32;

/// Copy a literal of n bytes from in[i] to o, over-copying short ones when
/// the input has 16 readable bytes left.
inline void copy_literal(char* o, const unsigned char* in, std::size_t i, std::size_t size,
                         std::size_t n) {
  if (n <= 16 && i + 16 <= size) {
    std::memcpy(o, in + i, 16);
  } else {
    std::memcpy(o, in + i, n);
  }
}

std::uint32_t lz_hash(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

class RawCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::Raw; }
  void encode_into(std::string_view raw, std::string_view, std::string& out) const override {
    out.assign(raw);
  }
  void decode_into(std::string_view payload, std::size_t max_out, std::string_view,
                   std::string& out) const override {
    if (payload.size() > max_out) throw CodecError("raw codec: payload exceeds limit");
    out.assign(payload);
  }
};

class XorDeltaCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::Xor; }
  void encode_into(std::string_view raw, std::string_view base,
                   std::string& out) const override {
    apply(raw, base, out);
  }
  void decode_into(std::string_view payload, std::size_t max_out, std::string_view base,
                   std::string& out) const override {
    if (payload.size() > max_out) throw CodecError("xor codec: payload exceeds limit");
    apply(payload, base, out);  // XOR is an involution
  }

 private:
  static void apply(std::string_view in, std::string_view base, std::string& out) {
    out.assign(in);
    const std::size_t n = std::min(out.size(), base.size());
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<char>(out[i] ^ base[i]);
    // bytes past the base are kept verbatim (XOR against zero)
  }
};

class RleCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::Rle; }

  void encode_into(std::string_view raw, std::string_view, std::string& out) const override {
    out.clear();
    out.reserve(raw.size() / 4 + 16);
    const auto* p = reinterpret_cast<const unsigned char*>(raw.data());
    std::size_t lit_start = 0;  // start of the pending literal run
    std::size_t i = 0;
    const auto flush_literals = [&](std::size_t end) {
      while (lit_start < end) {
        const std::size_t n = std::min(end - lit_start, kRleMaxLiteral);
        out.push_back(static_cast<char>(n - 1));
        out.append(raw.data() + lit_start, n);
        lit_start += n;
      }
    };
    // Two SIMD scans instead of the old byte-at-a-time walk: skip to the next
    // position that starts a tokenizable (>= kRleMinRun) run, then measure it.
    // A position the old walk skipped past can never start such a run, so the
    // token stream is byte-identical (pinned in tests/test_simd.cpp).
    while (i < raw.size()) {
      const std::size_t start = i + rle_find_run(p + i, raw.size() - i);
      if (start >= raw.size()) break;
      const std::size_t run =
          rle_run_length(p + start, std::min(raw.size() - start, kRleMaxRun));
      flush_literals(start);
      out.push_back(static_cast<char>(0x80 + (run - kRleMinRun)));
      out.push_back(static_cast<char>(p[start]));
      i = start + run;
      lit_start = i;
    }
    flush_literals(raw.size());
  }

  void decode_into(std::string_view payload, std::size_t max_out, std::string_view,
                   std::string& out) const override {
    // Pass 1 walks the control bytes only: it sizes the output exactly and
    // raises every error, in token order, before a byte is written — so a
    // corrupt huge `max_out` never allocates ahead of real decoded bytes, and
    // pass 2 copies with no checks into a buffer that never grows.
    const auto* in = reinterpret_cast<const unsigned char*>(payload.data());
    const std::size_t size = payload.size();
    std::size_t total = 0;
    for (std::size_t i = 0; i < size;) {
      const unsigned char c = in[i++];
      if (c < 0x80) {
        const std::size_t n = static_cast<std::size_t>(c) + 1;
        if (i + n > size) throw CodecError("rle: truncated literal run");
        if (total + n > max_out) throw CodecError("rle: output exceeds limit");
        total += n;
        i += n;
      } else {
        if (i >= size) throw CodecError("rle: truncated repeat run");
        const std::size_t n = static_cast<std::size_t>(c - 0x80) + kRleMinRun;
        if (total + n > max_out) throw CodecError("rle: output exceeds limit");
        total += n;
        ++i;
      }
    }
    out.resize(total + kCopySlack);
    char* o = out.data();
    for (std::size_t i = 0; i < size;) {
      const unsigned char c = in[i++];
      if (c < 0x80) {
        const std::size_t n = static_cast<std::size_t>(c) + 1;
        copy_literal(o, in, i, size, n);
        o += n;
        i += n;
      } else {
        const std::size_t n = static_cast<std::size_t>(c - 0x80) + kRleMinRun;
        if (n <= 32) {
          std::memset(o, in[i++], 32);
        } else {
          std::memset(o, in[i++], n);
        }
        o += n;
      }
    }
    out.resize(total);
  }
};

class LzCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::Lz; }

  void encode_into(std::string_view raw, std::string_view, std::string& out) const override {
    out.clear();
    out.reserve(raw.size() / 2 + 16);
    const auto* data = reinterpret_cast<const unsigned char*>(raw.data());
    const std::size_t n = raw.size();

    std::size_t lit_start = 0;
    const auto flush_literals = [&](std::size_t end) {
      while (lit_start < end) {
        const std::size_t len = std::min(end - lit_start, kLzMaxLiteral);
        out.push_back(static_cast<char>(len - 1));
        out.append(raw.data() + lit_start, len);
        lit_start += len;
      }
    };
    if (n < kLzMinMatch) {  // nothing to match against; skip the table
      flush_literals(n);
      return;
    }

    // Hash table sized to the input (clamped to the window) and reused per
    // thread: the checkpoint engine encodes one small blob per variable per
    // commit, and a fresh 256 KiB zero-fill per call would dwarf the work
    // itself. The decoder never sees the table, so the sizing is free to vary.
    unsigned bits = 8;
    while ((std::size_t{1} << bits) < n && bits < kLzHashBits) ++bits;
    thread_local std::vector<std::int64_t> table;
    table.assign(std::size_t{1} << bits, -1);

    std::size_t i = 0;
    while (i + kLzMinMatch <= n) {
      const std::uint32_t h = lz_hash(data + i) >> (kLzHashBits - bits);
      const std::int64_t cand = table[h];
      table[h] = static_cast<std::int64_t>(i);
      if (cand >= 0 && i - static_cast<std::size_t>(cand) <= kLzWindow &&
          std::memcmp(data + cand, data + i, kLzMinMatch) == 0) {
        std::size_t len = kLzMinMatch;
        const std::size_t cap = std::min(kLzMaxMatch, n - i);
        while (len < cap && data[cand + len] == data[i + len]) ++len;
        flush_literals(i);
        out.push_back(static_cast<char>(0x80 + (len - kLzMinMatch)));
        const std::uint16_t dist = static_cast<std::uint16_t>(i - static_cast<std::size_t>(cand));
        out.push_back(static_cast<char>(dist & 0xFF));
        out.push_back(static_cast<char>(dist >> 8));
        i += len;
        lit_start = i;
      } else {
        ++i;
      }
    }
    flush_literals(n);
  }

  void decode_into(std::string_view payload, std::size_t max_out, std::string_view,
                   std::string& out) const override {
    // Two passes, as in RleCodec::decode_into: the token walk sizes the
    // output exactly and raises every error in token order; the copy pass
    // then runs check-free into the final buffer.
    const auto* in = reinterpret_cast<const unsigned char*>(payload.data());
    const std::size_t size = payload.size();
    std::size_t total = 0;
    for (std::size_t i = 0; i < size;) {
      const unsigned char c = in[i++];
      if (c < 0x80) {
        const std::size_t len = static_cast<std::size_t>(c) + 1;
        if (i + len > size) throw CodecError("lz: truncated literal run");
        if (total + len > max_out) throw CodecError("lz: output exceeds limit");
        total += len;
        i += len;
      } else {
        if (i + 2 > size) throw CodecError("lz: truncated match token");
        const std::size_t len = static_cast<std::size_t>(c - 0x80) + kLzMinMatch;
        const std::size_t dist = in[i] | (static_cast<std::size_t>(in[i + 1]) << 8);
        i += 2;
        if (dist == 0 || dist > total) throw CodecError("lz: match distance out of window");
        if (total + len > max_out) throw CodecError("lz: output exceeds limit");
        total += len;
      }
    }
    out.resize(total + kCopySlack);
    char* o = out.data();
    for (std::size_t i = 0; i < size;) {
      const unsigned char c = in[i++];
      if (c < 0x80) {
        const std::size_t len = static_cast<std::size_t>(c) + 1;
        copy_literal(o, in, i, size, len);
        o += len;
        i += len;
      } else {
        const std::size_t len = static_cast<std::size_t>(c - 0x80) + kLzMinMatch;
        const std::size_t dist = in[i] | (static_cast<std::size_t>(in[i + 1]) << 8);
        i += 2;
        if (len <= 16 && dist >= 16) {
          std::memcpy(o, o - dist, 16);  // source ends at or before o
        } else if (dist >= len) {
          std::memcpy(o, o - dist, len);
        } else {
          // Overlapping match (dist < len): the output feeds itself.
          const char* src = o - dist;
          for (std::size_t k = 0; k < len; ++k) o[k] = src[k];
        }
        o += len;
      }
    }
    out.resize(total);
  }
};

}  // namespace

const char* codec_name(CodecId id) {
  switch (id) {
    case CodecId::Raw: return "raw";
    case CodecId::Xor: return "xor";
    case CodecId::Rle: return "rle";
    case CodecId::Lz: return "lz";
  }
  return "?";
}

const Codec& codec_for(CodecId id) {
  static const RawCodec raw;
  static const XorDeltaCodec xr;
  static const RleCodec rle;
  static const LzCodec lz;
  switch (id) {
    case CodecId::Raw: return raw;
    case CodecId::Xor: return xr;
    case CodecId::Rle: return rle;
    case CodecId::Lz: return lz;
  }
  throw CodecError(strf("unknown codec id %u", static_cast<unsigned>(id)));
}

CodecChain::CodecChain(std::vector<CodecId> stages) : stages_(std::move(stages)) {
  for (const CodecId id : stages_) codec_for(id);  // validate
}

CodecChain CodecChain::parse(const std::string& spec) {
  if (spec.empty() || spec == "raw") return CodecChain{};
  if (spec == "chain") return CodecChain{{CodecId::Xor, CodecId::Rle, CodecId::Lz}};
  std::vector<CodecId> stages;
  for (const std::string_view tok : split_view(spec, '+')) {
    if (tok == "xor") {
      stages.push_back(CodecId::Xor);
    } else if (tok == "rle") {
      stages.push_back(CodecId::Rle);
    } else if (tok == "lz") {
      stages.push_back(CodecId::Lz);
    } else if (tok == "raw") {
      // identity stage: allowed, contributes nothing
      stages.push_back(CodecId::Raw);
    } else {
      throw CodecError("unknown codec '" + std::string(tok) + "' in spec '" + spec +
                       "' (want raw, xor, rle, lz, or chain)");
    }
  }
  return CodecChain{std::move(stages)};
}

CodecChain CodecChain::from_ids(const std::uint8_t* ids, std::size_t count) {
  std::vector<CodecId> stages;
  stages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (ids[i] > static_cast<std::uint8_t>(CodecId::Lz)) {
      throw CodecError(strf("bad codec id %u in record header", ids[i]));
    }
    stages.push_back(static_cast<CodecId>(ids[i]));
  }
  return CodecChain{std::move(stages)};
}

std::string CodecChain::str() const {
  if (stages_.empty()) return "raw";
  std::string out;
  for (const CodecId id : stages_) {
    if (!out.empty()) out += '+';
    out += codec_name(id);
  }
  return out;
}

std::string CodecChain::encode(std::string_view raw, std::string_view base) const {
  std::string out, scratch;
  encode_into(raw, base, out, scratch);
  return out;
}

std::string CodecChain::decode(std::string_view payload, std::size_t expect_raw_size,
                               std::string_view base) const {
  std::string out, scratch;
  decode_into(payload, expect_raw_size, base, out, scratch);
  return out;
}

void CodecChain::encode_into(std::string_view raw, std::string_view base, std::string& out,
                             std::string& scratch) const {
  if (stages_.empty()) {
    out.assign(raw);
    return;
  }
  // Alternate between the two caller buffers so stage s never reads the
  // buffer it writes; parity is chosen so the last stage lands in `out`.
  const std::size_t n = stages_.size();
  for (std::size_t s = 0; s < n; ++s) {
    const bool dst_is_out = (n - 1 - s) % 2 == 0;
    std::string& dst = dst_is_out ? out : scratch;
    const std::string_view src = s == 0 ? raw : std::string_view(dst_is_out ? scratch : out);
    codec_for(stages_[s]).encode_into(src, s == 0 ? base : std::string_view{}, dst);
  }
}

void CodecChain::decode_into(std::string_view payload, std::size_t expect_raw_size,
                             std::string_view base, std::string& out,
                             std::string& scratch) const {
  // Intermediate stages may legitimately be larger than the final raw size
  // (an RLE stream of an incompressible input), so the allocation guard gets
  // headroom compounded per stage: each RLE/LZ stage expands incompressible
  // input by at most 1 byte per 128 plus a trailing partial token, so
  // cap/64 + 512 per stage strictly dominates — even pathological stacked
  // chains (rle+rle+...) that encode successfully must decode successfully.
  std::size_t max_out = expect_raw_size;
  const std::size_t n = stages_.size();
  for (std::size_t s = 0; s < n; ++s) max_out += max_out / 64 + 512;
  if (n == 0) {
    out.assign(payload);
  } else {
    // Stages run in reverse; parity again steers the final write into `out`.
    for (std::size_t s = n; s-- > 0;) {
      std::string& dst = (s % 2 == 0) ? out : scratch;
      const std::string_view src =
          s == n - 1 ? payload : std::string_view((s % 2 == 0) ? scratch : out);
      codec_for(stages_[s]).decode_into(src, max_out, s == 0 ? base : std::string_view{}, dst);
    }
  }
  if (out.size() != expect_raw_size) {
    throw CodecError(strf("codec chain '%s' decoded %zu bytes, expected %zu", str().c_str(),
                          out.size(), expect_raw_size));
  }
}

// --- SIMD kernel dispatch ---------------------------------------------------

namespace scalar {

namespace {

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void store_u64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

/// Exchange the bytes of x selected by mask << shift with the bytes of y
/// selected by mask: one step of a SWAR byte-matrix transpose.
void swap_bytes(std::uint64_t& x, std::uint64_t& y, int shift, std::uint64_t mask) {
  const std::uint64_t t = ((x >> shift) ^ y) & mask;
  y ^= t;
  x ^= t << shift;
}

constexpr std::uint64_t kLow32 = 0x00000000FFFFFFFFull;
constexpr std::uint64_t kSwap16 = 0x0000FFFF0000FFFFull;
constexpr std::uint64_t kSwap8 = 0x00FF00FF00FF00FFull;

/// Unshuffle elements [i, i + 8) of a stride-4 or stride-8 column by
/// transposing one little-endian word per plane (byte k of a plane word is
/// element i + k): a word load and store per element instead of one per byte.
void unshuffle8_words(const unsigned char* src, std::size_t count, std::size_t stride,
                      std::size_t i, unsigned char* dst) {
  if (stride == 8) {
    std::uint64_t a0 = load_u64(src + i), a1 = load_u64(src + count + i),
                  a2 = load_u64(src + 2 * count + i), a3 = load_u64(src + 3 * count + i),
                  a4 = load_u64(src + 4 * count + i), a5 = load_u64(src + 5 * count + i),
                  a6 = load_u64(src + 6 * count + i), a7 = load_u64(src + 7 * count + i);
    swap_bytes(a0, a4, 32, kLow32);
    swap_bytes(a1, a5, 32, kLow32);
    swap_bytes(a2, a6, 32, kLow32);
    swap_bytes(a3, a7, 32, kLow32);
    swap_bytes(a0, a2, 16, kSwap16);
    swap_bytes(a1, a3, 16, kSwap16);
    swap_bytes(a4, a6, 16, kSwap16);
    swap_bytes(a5, a7, 16, kSwap16);
    swap_bytes(a0, a1, 8, kSwap8);
    swap_bytes(a2, a3, 8, kSwap8);
    swap_bytes(a4, a5, 8, kSwap8);
    swap_bytes(a6, a7, 8, kSwap8);
    unsigned char* d = dst + i * 8;
    store_u64(d, a0);
    store_u64(d + 8, a1);
    store_u64(d + 16, a2);
    store_u64(d + 24, a3);
    store_u64(d + 32, a4);
    store_u64(d + 40, a5);
    store_u64(d + 48, a6);
    store_u64(d + 56, a7);
  } else {  // stride 4: a 4x4 transpose in each 32-bit half
    std::uint64_t a0 = load_u64(src + i), a1 = load_u64(src + count + i),
                  a2 = load_u64(src + 2 * count + i), a3 = load_u64(src + 3 * count + i);
    swap_bytes(a0, a2, 16, kSwap16);
    swap_bytes(a1, a3, 16, kSwap16);
    swap_bytes(a0, a1, 8, kSwap8);
    swap_bytes(a2, a3, 8, kSwap8);
    // Word r now holds element i + r in its low half, i + 4 + r in its high.
    unsigned char* d = dst + i * 4;
    store_u64(d, (a0 & kLow32) | a1 << 32);
    store_u64(d + 8, (a2 & kLow32) | a3 << 32);
    store_u64(d + 16, a0 >> 32 | (a1 & ~kLow32));
    store_u64(d + 24, a2 >> 32 | (a3 & ~kLow32));
  }
}

}  // namespace


std::string shuffle_planes(const void* data, std::size_t count, std::size_t stride) {
  const auto* in = static_cast<const unsigned char*>(data);
  std::string out(count * stride, '\0');
  for (std::size_t plane = 0; plane < stride; ++plane) {
    char* dst = out.data() + plane * count;
    for (std::size_t i = 0; i < count; ++i) {
      dst[i] = static_cast<char>(in[i * stride + plane]);
    }
  }
  return out;
}

void unshuffle_planes(std::string_view bytes, std::size_t count, std::size_t stride, void* out) {
  if (bytes.size() != count * stride) {
    throw CodecError(strf("shuffled stream of %zu bytes, expected %zu x %zu", bytes.size(),
                          count, stride));
  }
  auto* dst = static_cast<unsigned char*>(out);
  const auto* src = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t done = 0;
  if constexpr (std::endian::native == std::endian::little) {
    if (stride == 4 || stride == 8) {
      for (; done + 8 <= count; done += 8) unshuffle8_words(src, count, stride, done, dst);
    }
  }
  for (std::size_t plane = 0; plane < stride; ++plane) {
    for (std::size_t i = done; i < count; ++i) dst[i * stride + plane] = src[plane * count + i];
  }
}

void zigzag_delta_encode(std::uint64_t* values, std::size_t n, std::uint64_t prev) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t cur = values[i];
    values[i] = ac::zigzag_encode(cur - prev);
    prev = cur;
  }
}

void zigzag_delta_decode(std::uint64_t* values, std::size_t n, std::uint64_t prev) {
  for (std::size_t i = 0; i < n; ++i) {
    prev += ac::zigzag_decode(values[i]);
    values[i] = prev;
  }
}

std::size_t rle_find_run(const unsigned char* p, std::size_t n) {
  if (n < 3) return n;
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (p[i] == p[i + 1] && p[i + 1] == p[i + 2]) return i;
  }
  return n;
}

std::size_t rle_run_length(const unsigned char* p, std::size_t n) {
  std::size_t i = 1;
  while (i < n && p[i] == p[0]) ++i;
  return i;
}

}  // namespace scalar

#ifdef AC_SIMD_X86
namespace {

// The Sse dispatch level is gated on SSSE3 (for pshufb); the plain unpack
// networks below only need the x86-64 SSE2 baseline, so they carry no target
// attribute. Each kernel handles its own scalar tail.

// AoS -> SoA, 4-byte elements, 16 at a time: pshufb gathers each element's
// bytes by plane, then a 4x4 u32 transpose turns per-element planes into
// per-plane elements.
__attribute__((target("ssse3"))) void shuffle4_sse(const unsigned char* in, std::size_t count,
                                                   unsigned char* out) {
  const __m128i mask =
      _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const unsigned char* src = in + i * 4;
    __m128i v0 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src)), mask);
    __m128i v1 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 16)), mask);
    __m128i v2 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 32)), mask);
    __m128i v3 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 48)), mask);
    const __m128i t0 = _mm_unpacklo_epi32(v0, v1);
    const __m128i t1 = _mm_unpackhi_epi32(v0, v1);
    const __m128i t2 = _mm_unpacklo_epi32(v2, v3);
    const __m128i t3 = _mm_unpackhi_epi32(v2, v3);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 0 * count + i), _mm_unpacklo_epi64(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 1 * count + i), _mm_unpackhi_epi64(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * count + i), _mm_unpacklo_epi64(t1, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 3 * count + i), _mm_unpackhi_epi64(t1, t3));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 4; ++k) out[k * count + i] = in[i * 4 + k];
  }
}

// AoS -> SoA, 8-byte elements, 16 at a time: pshufb interleaves the two
// elements of each 16-byte load by plane, then three unpack levels
// (16/32/64-bit) widen the per-plane granule until each register holds one
// full plane of all 16 elements.
__attribute__((target("ssse3"))) void shuffle8_sse(const unsigned char* in, std::size_t count,
                                                   unsigned char* out) {
  const __m128i mask =
      _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const unsigned char* src = in + i * 8;
    __m128i v[8];
    for (int j = 0; j < 8; ++j) {
      v[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 16 * j)), mask);
    }
    const __m128i t0 = _mm_unpacklo_epi16(v[0], v[1]);
    const __m128i t1 = _mm_unpackhi_epi16(v[0], v[1]);
    const __m128i t2 = _mm_unpacklo_epi16(v[2], v[3]);
    const __m128i t3 = _mm_unpackhi_epi16(v[2], v[3]);
    const __m128i t4 = _mm_unpacklo_epi16(v[4], v[5]);
    const __m128i t5 = _mm_unpackhi_epi16(v[4], v[5]);
    const __m128i t6 = _mm_unpacklo_epi16(v[6], v[7]);
    const __m128i t7 = _mm_unpackhi_epi16(v[6], v[7]);
    const __m128i s0 = _mm_unpacklo_epi32(t0, t2);
    const __m128i s1 = _mm_unpackhi_epi32(t0, t2);
    const __m128i s2 = _mm_unpacklo_epi32(t1, t3);
    const __m128i s3 = _mm_unpackhi_epi32(t1, t3);
    const __m128i s4 = _mm_unpacklo_epi32(t4, t6);
    const __m128i s5 = _mm_unpackhi_epi32(t4, t6);
    const __m128i s6 = _mm_unpacklo_epi32(t5, t7);
    const __m128i s7 = _mm_unpackhi_epi32(t5, t7);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 0 * count + i), _mm_unpacklo_epi64(s0, s4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 1 * count + i), _mm_unpackhi_epi64(s0, s4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * count + i), _mm_unpacklo_epi64(s1, s5));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 3 * count + i), _mm_unpackhi_epi64(s1, s5));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * count + i), _mm_unpacklo_epi64(s2, s6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 5 * count + i), _mm_unpackhi_epi64(s2, s6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 6 * count + i), _mm_unpacklo_epi64(s3, s7));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 7 * count + i), _mm_unpackhi_epi64(s3, s7));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 8; ++k) out[k * count + i] = in[i * 8 + k];
  }
}

// SoA -> AoS, 4-byte elements: two unpack levels (8-bit then 16-bit)
// re-interleave four plane registers back into element order.
void unshuffle4_sse(const unsigned char* in, std::size_t count, unsigned char* out) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 0 * count + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 1 * count + i));
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 2 * count + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 3 * count + i));
    const __m128i t0 = _mm_unpacklo_epi8(a, b);
    const __m128i t1 = _mm_unpackhi_epi8(a, b);
    const __m128i t2 = _mm_unpacklo_epi8(c, d);
    const __m128i t3 = _mm_unpackhi_epi8(c, d);
    unsigned char* dst = out + i * 4;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm_unpacklo_epi16(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16), _mm_unpackhi_epi16(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32), _mm_unpacklo_epi16(t1, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48), _mm_unpackhi_epi16(t1, t3));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 4; ++k) out[i * 4 + k] = in[k * count + i];
  }
}

// SoA -> AoS, 8-byte elements: three unpack levels (8/16/32-bit) rebuild 16
// elements from eight plane registers.
void unshuffle8_sse(const unsigned char* in, std::size_t count, unsigned char* out) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    __m128i v[8];
    for (int k = 0; k < 8; ++k) {
      v[k] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(in + static_cast<std::size_t>(k) * count + i));
    }
    const __m128i t0 = _mm_unpacklo_epi8(v[0], v[1]);
    const __m128i t1 = _mm_unpackhi_epi8(v[0], v[1]);
    const __m128i t2 = _mm_unpacklo_epi8(v[2], v[3]);
    const __m128i t3 = _mm_unpackhi_epi8(v[2], v[3]);
    const __m128i t4 = _mm_unpacklo_epi8(v[4], v[5]);
    const __m128i t5 = _mm_unpackhi_epi8(v[4], v[5]);
    const __m128i t6 = _mm_unpacklo_epi8(v[6], v[7]);
    const __m128i t7 = _mm_unpackhi_epi8(v[6], v[7]);
    const __m128i s0 = _mm_unpacklo_epi16(t0, t2);
    const __m128i s1 = _mm_unpackhi_epi16(t0, t2);
    const __m128i s2 = _mm_unpacklo_epi16(t1, t3);
    const __m128i s3 = _mm_unpackhi_epi16(t1, t3);
    const __m128i s4 = _mm_unpacklo_epi16(t4, t6);
    const __m128i s5 = _mm_unpackhi_epi16(t4, t6);
    const __m128i s6 = _mm_unpacklo_epi16(t5, t7);
    const __m128i s7 = _mm_unpackhi_epi16(t5, t7);
    unsigned char* dst = out + i * 8;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0), _mm_unpacklo_epi32(s0, s4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16), _mm_unpackhi_epi32(s0, s4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32), _mm_unpacklo_epi32(s1, s5));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48), _mm_unpackhi_epi32(s1, s5));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 64), _mm_unpacklo_epi32(s2, s6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 80), _mm_unpackhi_epi32(s2, s6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 96), _mm_unpacklo_epi32(s3, s7));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 112), _mm_unpackhi_epi32(s3, s7));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 8; ++k) out[i * 8 + k] = in[k * count + i];
  }
}

// AVX2 variants: _mm256_loadu2_m128i places elements i..i+15 in lane 0 and
// i+16..i+31 in lane 1, so the 128-bit networks above run unchanged per lane;
// shuffle outputs are 32 contiguous plane bytes (one plain store), unshuffle
// outputs split back into the two 16-element halves via storeu2.

__attribute__((target("avx2"))) void shuffle4_avx2(const unsigned char* in, std::size_t count,
                                                   unsigned char* out) {
  const __m256i mask = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15));
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32) {
    const unsigned char* lo = in + i * 4;
    const unsigned char* hi = in + (i + 16) * 4;
    __m256i v[4];
    for (int j = 0; j < 4; ++j) {
      v[j] = _mm256_shuffle_epi8(
          _mm256_loadu2_m128i(reinterpret_cast<const __m128i*>(hi + 16 * j),
                              reinterpret_cast<const __m128i*>(lo + 16 * j)),
          mask);
    }
    const __m256i t0 = _mm256_unpacklo_epi32(v[0], v[1]);
    const __m256i t1 = _mm256_unpackhi_epi32(v[0], v[1]);
    const __m256i t2 = _mm256_unpacklo_epi32(v[2], v[3]);
    const __m256i t3 = _mm256_unpackhi_epi32(v[2], v[3]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0 * count + i),
                        _mm256_unpacklo_epi64(t0, t2));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 1 * count + i),
                        _mm256_unpackhi_epi64(t0, t2));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 2 * count + i),
                        _mm256_unpacklo_epi64(t1, t3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 3 * count + i),
                        _mm256_unpackhi_epi64(t1, t3));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 4; ++k) out[k * count + i] = in[i * 4 + k];
  }
}

__attribute__((target("avx2"))) void shuffle8_avx2(const unsigned char* in, std::size_t count,
                                                   unsigned char* out) {
  const __m256i mask = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15));
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32) {
    const unsigned char* lo = in + i * 8;
    const unsigned char* hi = in + (i + 16) * 8;
    __m256i v[8];
    for (int j = 0; j < 8; ++j) {
      v[j] = _mm256_shuffle_epi8(
          _mm256_loadu2_m128i(reinterpret_cast<const __m128i*>(hi + 16 * j),
                              reinterpret_cast<const __m128i*>(lo + 16 * j)),
          mask);
    }
    const __m256i t0 = _mm256_unpacklo_epi16(v[0], v[1]);
    const __m256i t1 = _mm256_unpackhi_epi16(v[0], v[1]);
    const __m256i t2 = _mm256_unpacklo_epi16(v[2], v[3]);
    const __m256i t3 = _mm256_unpackhi_epi16(v[2], v[3]);
    const __m256i t4 = _mm256_unpacklo_epi16(v[4], v[5]);
    const __m256i t5 = _mm256_unpackhi_epi16(v[4], v[5]);
    const __m256i t6 = _mm256_unpacklo_epi16(v[6], v[7]);
    const __m256i t7 = _mm256_unpackhi_epi16(v[6], v[7]);
    const __m256i s0 = _mm256_unpacklo_epi32(t0, t2);
    const __m256i s1 = _mm256_unpackhi_epi32(t0, t2);
    const __m256i s2 = _mm256_unpacklo_epi32(t1, t3);
    const __m256i s3 = _mm256_unpackhi_epi32(t1, t3);
    const __m256i s4 = _mm256_unpacklo_epi32(t4, t6);
    const __m256i s5 = _mm256_unpackhi_epi32(t4, t6);
    const __m256i s6 = _mm256_unpacklo_epi32(t5, t7);
    const __m256i s7 = _mm256_unpackhi_epi32(t5, t7);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0 * count + i),
                        _mm256_unpacklo_epi64(s0, s4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 1 * count + i),
                        _mm256_unpackhi_epi64(s0, s4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 2 * count + i),
                        _mm256_unpacklo_epi64(s1, s5));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 3 * count + i),
                        _mm256_unpackhi_epi64(s1, s5));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * count + i),
                        _mm256_unpacklo_epi64(s2, s6));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 5 * count + i),
                        _mm256_unpackhi_epi64(s2, s6));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 6 * count + i),
                        _mm256_unpacklo_epi64(s3, s7));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 7 * count + i),
                        _mm256_unpackhi_epi64(s3, s7));
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 8; ++k) out[k * count + i] = in[i * 8 + k];
  }
}

__attribute__((target("avx2"))) void unshuffle4_avx2(const unsigned char* in, std::size_t count,
                                                     unsigned char* out) {
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32) {
    __m256i v[4];
    for (int k = 0; k < 4; ++k) {
      v[k] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(in + static_cast<std::size_t>(k) * count + i));
    }
    const __m256i t0 = _mm256_unpacklo_epi8(v[0], v[1]);
    const __m256i t1 = _mm256_unpackhi_epi8(v[0], v[1]);
    const __m256i t2 = _mm256_unpacklo_epi8(v[2], v[3]);
    const __m256i t3 = _mm256_unpackhi_epi8(v[2], v[3]);
    const __m256i u0 = _mm256_unpacklo_epi16(t0, t2);
    const __m256i u1 = _mm256_unpackhi_epi16(t0, t2);
    const __m256i u2 = _mm256_unpacklo_epi16(t1, t3);
    const __m256i u3 = _mm256_unpackhi_epi16(t1, t3);
    unsigned char* lo = out + i * 4;
    unsigned char* hi = out + (i + 16) * 4;
    _mm256_storeu2_m128i(reinterpret_cast<__m128i*>(hi), reinterpret_cast<__m128i*>(lo), u0);
    _mm256_storeu2_m128i(reinterpret_cast<__m128i*>(hi + 16), reinterpret_cast<__m128i*>(lo + 16),
                         u1);
    _mm256_storeu2_m128i(reinterpret_cast<__m128i*>(hi + 32), reinterpret_cast<__m128i*>(lo + 32),
                         u2);
    _mm256_storeu2_m128i(reinterpret_cast<__m128i*>(hi + 48), reinterpret_cast<__m128i*>(lo + 48),
                         u3);
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 4; ++k) out[i * 4 + k] = in[k * count + i];
  }
}

__attribute__((target("avx2"))) void unshuffle8_avx2(const unsigned char* in, std::size_t count,
                                                     unsigned char* out) {
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32) {
    __m256i v[8];
    for (int k = 0; k < 8; ++k) {
      v[k] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(in + static_cast<std::size_t>(k) * count + i));
    }
    const __m256i t0 = _mm256_unpacklo_epi8(v[0], v[1]);
    const __m256i t1 = _mm256_unpackhi_epi8(v[0], v[1]);
    const __m256i t2 = _mm256_unpacklo_epi8(v[2], v[3]);
    const __m256i t3 = _mm256_unpackhi_epi8(v[2], v[3]);
    const __m256i t4 = _mm256_unpacklo_epi8(v[4], v[5]);
    const __m256i t5 = _mm256_unpackhi_epi8(v[4], v[5]);
    const __m256i t6 = _mm256_unpacklo_epi8(v[6], v[7]);
    const __m256i t7 = _mm256_unpackhi_epi8(v[6], v[7]);
    const __m256i s0 = _mm256_unpacklo_epi16(t0, t2);
    const __m256i s1 = _mm256_unpackhi_epi16(t0, t2);
    const __m256i s2 = _mm256_unpacklo_epi16(t1, t3);
    const __m256i s3 = _mm256_unpackhi_epi16(t1, t3);
    const __m256i s4 = _mm256_unpacklo_epi16(t4, t6);
    const __m256i s5 = _mm256_unpackhi_epi16(t4, t6);
    const __m256i s6 = _mm256_unpacklo_epi16(t5, t7);
    const __m256i s7 = _mm256_unpackhi_epi16(t5, t7);
    const __m256i r0 = _mm256_unpacklo_epi32(s0, s4);
    const __m256i r1 = _mm256_unpackhi_epi32(s0, s4);
    const __m256i r2 = _mm256_unpacklo_epi32(s1, s5);
    const __m256i r3 = _mm256_unpackhi_epi32(s1, s5);
    const __m256i r4 = _mm256_unpacklo_epi32(s2, s6);
    const __m256i r5 = _mm256_unpackhi_epi32(s2, s6);
    const __m256i r6 = _mm256_unpacklo_epi32(s3, s7);
    const __m256i r7 = _mm256_unpackhi_epi32(s3, s7);
    unsigned char* lo = out + i * 8;
    unsigned char* hi = out + (i + 16) * 8;
    const __m256i rs[8] = {r0, r1, r2, r3, r4, r5, r6, r7};
    for (int k = 0; k < 8; ++k) {
      _mm256_storeu2_m128i(reinterpret_cast<__m128i*>(hi + 16 * k),
                           reinterpret_cast<__m128i*>(lo + 16 * k), rs[k]);
    }
  }
  for (; i < count; ++i) {
    for (std::size_t k = 0; k < 8; ++k) out[i * 8 + k] = in[k * count + i];
  }
}

// Zigzag-delta over u64 columns. The encode's per-lane previous element comes
// from shifting the loaded vector itself, so the transform is in-place safe;
// the decode carries the running sum in a register across iterations.

void zigzag_enc_sse(std::uint64_t* v, std::size_t n, std::uint64_t prev) {
  std::size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 2 <= n; i += 2) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    const __m128i pv = _mm_or_si128(_mm_slli_si128(x, 8),
                                    _mm_cvtsi64_si128(static_cast<long long>(prev)));
    const __m128i d = _mm_sub_epi64(x, pv);
    const __m128i sign = _mm_sub_epi64(zero, _mm_srli_epi64(d, 63));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(v + i),
                     _mm_xor_si128(_mm_slli_epi64(d, 1), sign));
    prev = static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_srli_si128(x, 8)));
  }
  scalar::zigzag_delta_encode(v + i, n - i, prev);
}

__attribute__((target("avx2"))) void zigzag_enc_avx2(std::uint64_t* v, std::size_t n,
                                                     std::uint64_t prev) {
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    // [v0,v0,v1,v2] then lane 0 <- carried prev: the per-lane predecessor.
    const __m256i pv = _mm256_blend_epi32(
        _mm256_permute4x64_epi64(x, 0x90),
        _mm256_set1_epi64x(static_cast<long long>(prev)), 0x03);
    const __m256i d = _mm256_sub_epi64(x, pv);
    const __m256i sign = _mm256_cmpgt_epi64(zero, d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i),
                        _mm256_xor_si256(_mm256_slli_epi64(d, 1), sign));
    prev = static_cast<std::uint64_t>(_mm256_extract_epi64(x, 3));
  }
  scalar::zigzag_delta_encode(v + i, n - i, prev);
}

void zigzag_dec_sse(std::uint64_t* v, std::size_t n, std::uint64_t prev) {
  std::size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi64x(1);
  for (; i + 2 <= n; i += 2) {
    const __m128i z = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    const __m128i u = _mm_xor_si128(_mm_srli_epi64(z, 1),
                                    _mm_sub_epi64(zero, _mm_and_si128(z, one)));
    const __m128i sum = _mm_add_epi64(u, _mm_slli_si128(u, 8));  // [u0, u0+u1]
    const __m128i r = _mm_add_epi64(sum, _mm_set1_epi64x(static_cast<long long>(prev)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(v + i), r);
    prev = static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_srli_si128(r, 8)));
  }
  scalar::zigzag_delta_decode(v + i, n - i, prev);
}

__attribute__((target("avx2"))) void zigzag_dec_avx2(std::uint64_t* v, std::size_t n,
                                                     std::uint64_t prev) {
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i carry = _mm256_set1_epi64x(static_cast<long long>(prev));
  for (; i + 4 <= n; i += 4) {
    const __m256i z = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i u = _mm256_xor_si256(_mm256_srli_epi64(z, 1),
                                       _mm256_sub_epi64(zero, _mm256_and_si256(z, one)));
    const __m256i x1 = _mm256_add_epi64(u, _mm256_slli_si256(u, 8));  // [u0,u01,u2,u23] per lane
    // Add lane 1's pair sum (u0+u1) into the upper 128-bit lane only.
    const __m256i t = _mm256_blend_epi32(_mm256_permute4x64_epi64(x1, 0x55), zero, 0x0F);
    const __m256i x2 = _mm256_add_epi64(x1, t);  // inclusive prefix sum of the 4 lanes
    const __m256i r = _mm256_add_epi64(x2, carry);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i), r);
    carry = _mm256_permute4x64_epi64(r, 0xFF);  // broadcast the running total
  }
  scalar::zigzag_delta_decode(v + i, n - i,
                              static_cast<std::uint64_t>(_mm256_extract_epi64(carry, 0)));
}

// RLE scans (SSE2, used at both SIMD levels): 16 run-start candidates or 16
// run-continuation bytes per compare.

std::size_t rle_find_run_sse(const unsigned char* p, std::size_t n) {
  std::size_t i = 0;
  while (i + 18 <= n) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i + 1));
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i + 2));
    const int m =
        _mm_movemask_epi8(_mm_and_si128(_mm_cmpeq_epi8(a, b), _mm_cmpeq_epi8(b, c)));
    if (m != 0) return i + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(m)));
    i += 16;
  }
  return i + scalar::rle_find_run(p + i, n - i);
}

std::size_t rle_run_length_sse(const unsigned char* p, std::size_t n) {
  const __m128i v = _mm_set1_epi8(static_cast<char>(p[0]));
  std::size_t i = 0;
  while (i + 16 <= n) {
    const int m = _mm_movemask_epi8(
        _mm_cmpeq_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i)), v));
    if (m != 0xFFFF) {
      return i + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(~m & 0xFFFF)));
    }
    i += 16;
  }
  while (i < n && p[i] == p[0]) ++i;
  return i;
}

}  // namespace
#endif  // AC_SIMD_X86

namespace {

SimdLevel cpu_simd_level() {
#ifdef AC_SIMD_X86
  static const SimdLevel cap = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return SimdLevel::Avx2;
    if (__builtin_cpu_supports("ssse3")) return SimdLevel::Sse;
    return SimdLevel::Scalar;
  }();
  return cap;
#else
  return SimdLevel::Scalar;
#endif
}

std::atomic<SimdLevel>& simd_level_slot() {
  static std::atomic<SimdLevel> level{[] {
    const char* env = std::getenv("AC_NO_SIMD");
    if (env && *env && std::string_view(env) != "0") return SimdLevel::Scalar;
    return cpu_simd_level();
  }()};
  return level;
}

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Sse: return "sse";
    case SimdLevel::Avx2: return "avx2";
  }
  return "?";
}

SimdLevel active_simd_level() { return simd_level_slot().load(std::memory_order_relaxed); }

SimdLevel force_simd_level(SimdLevel level) {
  if (level > cpu_simd_level()) level = cpu_simd_level();
  return simd_level_slot().exchange(level, std::memory_order_relaxed);
}

std::string shuffle_planes(const void* data, std::size_t count, std::size_t stride) {
#ifdef AC_SIMD_X86
  const SimdLevel level = active_simd_level();
  if (level != SimdLevel::Scalar && (stride == 4 || stride == 8) && count >= 16) {
    const auto* in = static_cast<const unsigned char*>(data);
    std::string out(count * stride, '\0');
    auto* dst = reinterpret_cast<unsigned char*>(out.data());
    if (level == SimdLevel::Avx2) {
      stride == 4 ? shuffle4_avx2(in, count, dst) : shuffle8_avx2(in, count, dst);
    } else {
      stride == 4 ? shuffle4_sse(in, count, dst) : shuffle8_sse(in, count, dst);
    }
    return out;
  }
#endif
  return scalar::shuffle_planes(data, count, stride);
}

void unshuffle_planes(std::string_view bytes, std::size_t count, std::size_t stride, void* out) {
  if (bytes.size() != count * stride) {
    throw CodecError(strf("shuffled stream of %zu bytes, expected %zu x %zu", bytes.size(),
                          count, stride));
  }
#ifdef AC_SIMD_X86
  const SimdLevel level = active_simd_level();
  if (level != SimdLevel::Scalar && (stride == 4 || stride == 8) && count >= 16) {
    const auto* in = reinterpret_cast<const unsigned char*>(bytes.data());
    auto* dst = static_cast<unsigned char*>(out);
    if (level == SimdLevel::Avx2) {
      stride == 4 ? unshuffle4_avx2(in, count, dst) : unshuffle8_avx2(in, count, dst);
    } else {
      stride == 4 ? unshuffle4_sse(in, count, dst) : unshuffle8_sse(in, count, dst);
    }
    return;
  }
#endif
  scalar::unshuffle_planes(bytes, count, stride, out);
}

void zigzag_delta_encode(std::uint64_t* values, std::size_t n, std::uint64_t prev) {
#ifdef AC_SIMD_X86
  const SimdLevel level = active_simd_level();
  if (level == SimdLevel::Avx2 && n >= 4) return zigzag_enc_avx2(values, n, prev);
  if (level == SimdLevel::Sse && n >= 2) return zigzag_enc_sse(values, n, prev);
#endif
  scalar::zigzag_delta_encode(values, n, prev);
}

void zigzag_delta_decode(std::uint64_t* values, std::size_t n, std::uint64_t prev) {
#ifdef AC_SIMD_X86
  const SimdLevel level = active_simd_level();
  if (level == SimdLevel::Avx2 && n >= 4) return zigzag_dec_avx2(values, n, prev);
  if (level == SimdLevel::Sse && n >= 2) return zigzag_dec_sse(values, n, prev);
#endif
  scalar::zigzag_delta_decode(values, n, prev);
}

std::size_t rle_find_run(const unsigned char* p, std::size_t n) {
#ifdef AC_SIMD_X86
  if (active_simd_level() != SimdLevel::Scalar && n >= 18) return rle_find_run_sse(p, n);
#endif
  return scalar::rle_find_run(p, n);
}

std::size_t rle_run_length(const unsigned char* p, std::size_t n) {
#ifdef AC_SIMD_X86
  if (active_simd_level() != SimdLevel::Scalar && n >= 16) return rle_run_length_sse(p, n);
#endif
  return scalar::rle_run_length(p, n);
}

}  // namespace ac
