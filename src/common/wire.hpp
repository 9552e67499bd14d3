// Shared flat-buffer serialization: little-endian encode/decode, the
// word-wise fold checksum, and the framed wire protocol the distributed
// transport speaks.
//
// Hoisted out of sim/runtime.cpp (where the checkpoint format grew them) so
// checkpoint() and the src/dist/ transport share ONE copy of the byte-level
// idioms instead of two drifting ones. Everything here is format, not
// policy: no I/O, no simulator types.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic      0x46637664 ("dvcF" on the wire)
//        4     1  version    kFrameVersion
//        5     1  type       opaque to this layer (dist defines the enum)
//        6     2  reserved   zero
//        8     4  phase      int32, -1 when not phase-scoped
//       12     4  round      int32, -1 when not round-scoped
//       16     4  length     payload byte count
//       20   len  payload
//   20+len     8  checksum   checksum64(kFrameMagic, header+payload)
//
// The trailing checksum is the same digest_mix fold the checkpoint trailer
// uses: any flipped bit, truncation or extension anywhere in the frame
// changes it or its length check, and decoding raises dvc::corruption_error
// -- never silent damage.
//
// Besides fixed-width little-endian integers, payloads may carry LEB128
// varints: 7 bits per byte, low group first, high bit set on every byte but
// the last, at most 10 bytes for 64 bits. Signed words are zigzag-mapped
// first (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...), so a word of magnitude
// below 64 takes one byte whatever its sign. A varint longer than 10 bytes,
// or whose 10th byte holds more than the 64th bit, is corruption.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace dvc::wire {

namespace detail {

inline constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

/// Reads `n` <= 8 bytes at `p` as a little-endian integer (zero-padded).
inline std::uint64_t load_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  if constexpr (kLittleEndian) {
    std::memcpy(&v, p, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  }
  return v;
}

/// Writes the low `n` <= 8 bytes of `v` little-endian at `p`.
inline void store_le(std::uint8_t* p, std::uint64_t v, std::size_t n) {
  if constexpr (kLittleEndian) {
    std::memcpy(p, &v, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

inline constexpr std::uint64_t zigzag(std::int64_t v) {
  return (std::bit_cast<std::uint64_t>(v) << 1) ^
         std::bit_cast<std::uint64_t>(v >> 63);
}

inline constexpr std::int64_t unzigzag(std::uint64_t u) {
  return std::bit_cast<std::int64_t>((u >> 1) ^ (0 - (u & 1)));
}

}  // namespace detail

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `v` little-endian at `p` and returns one past its last byte.
inline std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  detail::store_le(p, v, 4);
  return p + 4;
}

/// Writes `v` as an LEB128 varint at `p` (1 to kMaxVarintBytes bytes) and
/// returns one past its last byte.
inline std::uint8_t* put_uvarint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Writes each of `words` as a zigzag varint at `p` (at most
/// kMaxVarintBytes bytes each) and returns one past the last byte.
inline std::uint8_t* put_svarints(std::uint8_t* p,
                                  std::span<const std::int64_t> words) {
  for (const std::int64_t w : words) p = put_uvarint(p, detail::zigzag(w));
  return p;
}

/// Order-dependent fold of a byte stream under `seed`; the checksum idiom
/// shared by the checkpoint trailer and the frame trailer. Folds one
/// little-endian 8-byte word per digest_mix step, then the zero-padded tail
/// word, then the byte count (so appending zero bytes still changes the
/// sum). Every step is a bijection of the running hash for a fixed word and
/// of the word for a fixed hash, so any single changed word changes the
/// result.
inline std::uint64_t checksum64(std::uint64_t seed,
                                std::span<const std::uint8_t> bytes) {
  std::uint64_t h = seed;
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    h = dvc::detail::digest_mix(h, detail::load_le(bytes.data() + i, 8));
  }
  if (i < n) {
    h = dvc::detail::digest_mix(h, detail::load_le(bytes.data() + i, n - i));
  }
  return dvc::detail::digest_mix(h, n);
}

/// Little-endian append-only encoder for flat buffers.
struct ByteWriter {
  std::vector<std::uint8_t> buf;
  void u8(std::uint8_t v) { buf.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i32(std::int32_t v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void uvarint(std::uint64_t v) { trim(put_uvarint(grow(kMaxVarintBytes), v)); }
  void svarint(std::int64_t v) { uvarint(detail::zigzag(v)); }
  /// Appends `words` as consecutive zigzag varints.
  void svarints(std::span<const std::int64_t> words) {
    trim(put_svarints(grow(kMaxVarintBytes * words.size()), words));
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
  }
  /// Overwrites the u32 at byte offset `at` (a length or count written as a
  /// placeholder earlier).
  void patch_u32(std::size_t at, std::uint32_t v) {
    detail::store_le(buf.data() + at, v, 4);
  }
  /// Grow, then store in place: appends `max` scratch bytes and returns
  /// where they start. Store at most `max` bytes there, then call trim with
  /// one past the last byte stored to drop the unused rest.
  std::uint8_t* grow(std::size_t max) {
    const std::size_t at = buf.size();
    buf.resize(at + max);
    return buf.data() + at;
  }
  void trim(const std::uint8_t* end) {
    buf.resize(static_cast<std::size_t>(end - buf.data()));
  }

 private:
  // Grow, then store in place: inserting from a local byte array trips a
  // false -Wstringop-overflow in GCC 12 after buf.clear().
  void le(std::uint64_t v, std::size_t n) {
    const std::size_t at = buf.size();
    buf.insert(buf.end(), n, 0);
    detail::store_le(buf.data() + at, v, n);
  }
};

/// Little-endian decoder over a borrowed buffer. Every read is bounds
/// checked: running past the end raises corruption_error naming `context`
/// (truncation IS corruption at this layer -- the caller decides whether the
/// transport maps it to something transient instead).
struct ByteReader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;
  const char* context = "wire buffer";
  void need(std::size_t n) {
    if (n > buf.size() - pos) {
      throw corruption_error(
          std::string(context) + " truncated: ran past its end while decoding",
          /*phase_label=*/"", /*phase=*/-1, /*round=*/-1, 0, 0);
    }
  }
  std::uint8_t u8() {
    need(1);
    return buf[pos++];
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return std::bit_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return std::bit_cast<std::int64_t>(u64()); }
  std::uint64_t uvarint() {
    if (pos < buf.size() && buf[pos] < 0x80) return buf[pos++];
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t b = u8();
      if (shift == 63 && b > 1) {
        throw corruption_error(
            std::string(context) + " holds a varint longer than 64 bits",
            /*phase_label=*/"", /*phase=*/-1, /*round=*/-1, 1, b);
      }
      v |= std::uint64_t{b & 0x7fu} << shift;
      if (b < 0x80) return v;
    }
  }
  std::int64_t svarint() { return detail::unzigzag(uvarint()); }
  /// Fills `out` with the next out.size() zigzag varints. Every varint takes
  /// at least one byte, so a count the buffer cannot hold is rejected
  /// before anything is read.
  void svarints(std::span<std::int64_t> out) {
    need(out.size());
    for (std::int64_t& w : out) w = svarint();
  }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(buf.data() + pos), len);
    pos += len;
    return s;
  }

 private:
  std::uint64_t le(std::size_t n) {
    need(n);
    const std::uint64_t v = detail::load_le(buf.data() + pos, n);
    pos += n;
    return v;
  }
};

// ---------------------------------------------------------------------------
// Framing

inline constexpr std::uint32_t kFrameMagic = 0x46637664;  // "dvcF"
inline constexpr std::uint8_t kFrameVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = 20;
inline constexpr std::size_t kFrameTrailerBytes = 8;
/// Sanity cap on a single frame's payload (1 GiB): a length field beyond it
/// is treated as corruption, not an allocation request.
inline constexpr std::uint32_t kFrameMaxPayload = 1u << 30;

struct FrameHeader {
  std::uint8_t type = 0;
  std::int32_t phase = -1;
  std::int32_t round = -1;
  std::uint32_t payload_len = 0;
};

/// Starts a frame in place: replaces `w`'s contents with a header whose
/// length field is a placeholder. Append the payload to `w`, then call
/// end_frame -- the payload is written once, never copied into a frame.
inline void begin_frame(ByteWriter& w, std::uint8_t type, std::int32_t phase,
                        std::int32_t round) {
  w.buf.assign(kFrameHeaderBytes, 0);  // reserved and length stay zero
  std::uint8_t* p = w.buf.data();
  detail::store_le(p, kFrameMagic, 4);
  p[4] = kFrameVersion;
  p[5] = type;
  detail::store_le(p + 8, std::bit_cast<std::uint32_t>(phase), 4);
  detail::store_le(p + 12, std::bit_cast<std::uint32_t>(round), 4);
}

/// Completes a frame begun by begin_frame: patches the payload length and
/// appends the checksum over header + payload.
inline void end_frame(ByteWriter& w) {
  const std::size_t payload_len = w.buf.size() - kFrameHeaderBytes;
  DVC_ENSURE(payload_len <= kFrameMaxPayload,
             "frame payload exceeds the wire format's sanity cap");
  w.patch_u32(16, static_cast<std::uint32_t>(payload_len));
  w.u64(checksum64(kFrameMagic, w.buf));
}

/// Encode a complete frame: header, payload, trailing checksum.
inline std::vector<std::uint8_t> encode_frame(
    std::uint8_t type, std::int32_t phase, std::int32_t round,
    std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.buf.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  begin_frame(w, type, phase, round);
  w.buf.insert(w.buf.end(), payload.begin(), payload.end());
  end_frame(w);
  return std::move(w.buf);
}

/// Decode and validate the fixed 20-byte header (magic, version, sane
/// length). Throws corruption_error on any mismatch.
inline FrameHeader decode_frame_header(std::span<const std::uint8_t> hdr) {
  ByteReader r{hdr, 0, "frame header"};
  r.need(kFrameHeaderBytes);
  FrameHeader h;
  const std::uint32_t magic = r.u32();
  if (magic != kFrameMagic) {
    throw corruption_error("frame header has wrong magic", "", -1, -1,
                           kFrameMagic, magic);
  }
  const std::uint8_t version = r.u8();
  if (version != kFrameVersion) {
    throw corruption_error("frame header has unknown version", "", -1, -1,
                           kFrameVersion, version);
  }
  h.type = r.u8();
  (void)r.u16();  // reserved
  h.phase = r.i32();
  h.round = r.i32();
  h.payload_len = r.u32();
  if (h.payload_len > kFrameMaxPayload) {
    throw corruption_error("frame length field exceeds the sanity cap", "", -1,
                           -1, kFrameMaxPayload, h.payload_len);
  }
  return h;
}

/// Validate a complete frame buffer (header + payload + trailer) and return
/// a view of its payload. Throws corruption_error on truncation, bytes past
/// the trailer, a bad header, or a checksum mismatch.
inline std::span<const std::uint8_t> frame_payload(
    std::span<const std::uint8_t> frame) {
  const FrameHeader h = decode_frame_header(frame);
  const std::size_t want =
      kFrameHeaderBytes + h.payload_len + kFrameTrailerBytes;
  if (frame.size() < want) {
    throw corruption_error("frame truncated before its declared end", "", -1,
                           -1, want, frame.size());
  }
  if (frame.size() > want) {
    throw corruption_error("frame has bytes past its checksum trailer", "", -1,
                           -1, want, frame.size());
  }
  const std::size_t body = kFrameHeaderBytes + h.payload_len;
  ByteReader trailer{frame.subspan(body, kFrameTrailerBytes), 0, "frame trailer"};
  const std::uint64_t stored = trailer.u64();
  const std::uint64_t computed = checksum64(kFrameMagic, frame.first(body));
  if (stored != computed) {
    throw corruption_error("frame checksum mismatch", "", -1, -1, computed,
                           stored);
  }
  return frame.subspan(kFrameHeaderBytes, h.payload_len);
}

}  // namespace dvc::wire
