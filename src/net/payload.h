// One cached item as one heap block: a 32-bit reference count, a 32-bit
// value length, a one-byte key length, the key bytes, then the value bytes,
// all from a single ::operator new(9 + key + value). memcached lays its items
// out the same way (header, key, data).
//
// ItemStore's LRU slot holds the block through a PayloadRef, and the
// response assembler takes a second reference to pin the value it hands to
// writev, so a reply stays valid after the store overwrites or evicts the
// item. data()/size() are the value; key() is the key. A PayloadRef is one
// pointer wide. Taking a reference is a relaxed increment (the taker already
// holds one, or holds the partition lock that guards the store's); dropping
// one is an acq_rel decrement, so whichever thread drops the last reference
// sees every other holder's reads finish before it frees the block. There
// are no weak references.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace spotcache::net {

class PayloadRef;

class Payload {
 public:
  /// Copies `key` and `value` into a new block holding one reference.
  /// Throws std::length_error for a key past 255 bytes (the protocol caps
  /// keys at 250) or a value past 4 GiB (it caps values far below that).
  static PayloadRef Make(std::string_view key, std::string_view value);

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const char* data() const { return key_bytes() + key_size(); }
  char front() const { return data()[0]; }
  std::string_view key() const { return {key_bytes(), key_size()}; }

 private:
  friend class PayloadRef;

  explicit Payload(uint32_t size) : size_(size) {}

  // The key length is the byte right after the header, so the header stays
  // 8 bytes and the whole block 9 + key + value.
  const char* after_header() const {
    return reinterpret_cast<const char*>(this + 1);
  }
  uint8_t key_size() const { return static_cast<uint8_t>(after_header()[0]); }
  const char* key_bytes() const { return after_header() + 1; }

  std::atomic<uint32_t> refs_{1};
  uint32_t size_;
};

static_assert(sizeof(Payload) == 8, "header is the count and the length");

/// Owning handle to a Payload; null when default-constructed or moved from.
class PayloadRef {
 public:
  PayloadRef() = default;
  PayloadRef(const PayloadRef& other) noexcept : p_(other.p_) {
    if (p_ != nullptr) {
      p_->refs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PayloadRef(PayloadRef&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}
  PayloadRef& operator=(PayloadRef other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~PayloadRef() {
    if (p_ != nullptr &&
        p_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      p_->~Payload();
      ::operator delete(p_);
    }
  }

  explicit operator bool() const { return p_ != nullptr; }
  const Payload* operator->() const { return p_; }

 private:
  friend class Payload;

  explicit PayloadRef(Payload* p) : p_(p) {}

  Payload* p_ = nullptr;
};

inline PayloadRef Payload::Make(std::string_view key, std::string_view value) {
  if (key.size() > UINT8_MAX) {
    throw std::length_error("key longer than 255 bytes");
  }
  if (value.size() > UINT32_MAX) {
    throw std::length_error("payload larger than 4 GiB");
  }
  const auto size = static_cast<uint32_t>(value.size());
  char* block = static_cast<char*>(
      ::operator new(sizeof(Payload) + 1 + key.size() + size));
  auto* p = new (block) Payload(size);
  char* at = block + sizeof(Payload);
  *at++ = static_cast<char>(key.size());
  if (!key.empty()) {
    std::memcpy(at, key.data(), key.size());
    at += key.size();
  }
  if (size != 0) {
    std::memcpy(at, value.data(), size);
  }
  return PayloadRef(p);
}

}  // namespace spotcache::net
