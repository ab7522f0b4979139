// One cached value as one heap block: a 32-bit reference count, a 32-bit
// length, then the bytes, all from a single ::operator new(8 + n).
//
// ItemStore holds each value through a PayloadRef, and the response
// assembler takes a second reference to pin the bytes it hands to writev, so
// a reply stays valid after the store overwrites or evicts the item. A
// PayloadRef is one pointer wide. Taking a reference is a relaxed increment
// (the taker already holds one, or holds the partition lock that guards the
// store's); dropping one is an acq_rel decrement, so whichever thread drops
// the last reference sees every other holder's reads finish before it frees
// the block. There are no weak references.

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
  /// Copies `bytes` into a new block holding one reference. Throws
  /// std::length_error past 4 GiB; the protocol caps values far below that.
  static PayloadRef Make(std::string_view bytes);

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  char front() const { return data()[0]; }

 private:
  friend class PayloadRef;

  explicit Payload(uint32_t size) : size_(size) {}

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

inline PayloadRef Payload::Make(std::string_view bytes) {
  if (bytes.size() > UINT32_MAX) {
    throw std::length_error("payload larger than 4 GiB");
  }
  const auto size = static_cast<uint32_t>(bytes.size());
  void* block = ::operator new(sizeof(Payload) + size);
  auto* p = new (block) Payload(size);
  if (size != 0) {
    std::memcpy(static_cast<char*>(block) + sizeof(Payload), bytes.data(),
                size);
  }
  return PayloadRef(p);
}

}  // namespace spotcache::net
