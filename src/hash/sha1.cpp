#include "hash/sha1.hpp"

#include <cstring>

namespace cycloid::hash {
namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

}  // namespace

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha1::update(const void* data, std::size_t length) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += length;

  if (buffered_ != 0) {
    const std::size_t take =
        length < buffer_.size() - buffered_ ? length : buffer_.size() - buffered_;
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    length -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (length >= buffer_.size()) {
    process_block(bytes);
    bytes += buffer_.size();
    length -= buffer_.size();
  }
  if (length != 0) {
    std::memcpy(buffer_.data(), bytes, length);
    buffered_ = length;
  }
}

Sha1::Digest Sha1::finish() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;

  // Pad the buffered tail in place: the 0x80 terminator, zeros up to byte
  // 56 of a block (spilling into one more block when the tail is longer
  // than 55 bytes), then the 64-bit big-endian bit length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  buffered_ = 0;

  Digest out{};
  for (std::size_t i = 0; i < state_.size(); ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

void Sha1::process_block(const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 80> w{};
  for (std::size_t t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }
  for (std::size_t t = 16; t < 80; ++t) {
    w[t] = rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  std::uint32_t e = state_[4];

  for (std::size_t t = 0; t < 80; ++t) {
    std::uint32_t f = 0;
    std::uint32_t k = 0;
    if (t < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999u;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1u;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdcu;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6u;
    }
    const std::uint32_t temp = rotl32(a, 5) + f + e + k + w[t];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = temp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

Sha1::Digest Sha1::digest(std::string_view text) noexcept {
  Sha1 hasher;
  hasher.update(text);
  return hasher.finish();
}

std::uint64_t Sha1::digest64(std::string_view text) noexcept {
  const Digest d = digest(text);
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    out = (out << 8) | d[i];
  }
  return out;
}

std::string Sha1::to_hex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * digest.size());
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

}  // namespace cycloid::hash
