// A PVM message: source task id, user tag, packed body — plus the
// reliability metadata the fault-tolerant middleware rides on: a per-system
// sequence number (duplicate detection / idempotent replay) and a corruption
// verdict with the payload checksum it stands for.
//
// Checksum contract.  With fault injection active every message is owed the
// FNV-1a checksum of its body as sent, yet the send path never hashes to get
// the delivery verdict.  An injected corruption XORs one byte of a non-empty
// body with 0xff, and every FNV-1a step is a bijection of the running hash,
// so verification would fail exactly when a Corrupt fault hit a non-empty
// body.  The checksum itself is observable only in checkpoint images
// (undelivered mailbox items).  So it is stamped on the Corrupt path, just
// before the flip destroys the sent bytes, and computed from the intact body
// at checkpoint capture for every other message (stamped_checksum()).
// Fault-free runs carry 0.
#pragma once

#include <cstdint>

#include "pvm/pack_buffer.hpp"

namespace opalsim::pvm {

/// Wildcard value for recv source/tag matching (PVM's -1).
inline constexpr int kAny = -1;

struct Message {
  int src = kAny;   ///< sender task id
  int tag = 0;      ///< user message tag
  /// Monotone per-system send sequence number.  A duplicated message keeps
  /// its original seq, which is what receivers dedup on.
  std::uint64_t seq = 0;
  /// FNV-1a of the body as sent, when stamped (see the contract above);
  /// 0 on fault-free runs.
  std::uint64_t checksum = 0;
  /// Delivery-side verdict: true when the body would fail checksum
  /// verification (the payload was corrupted in flight).  Receivers must not
  /// trust the body of a corrupted message.
  bool corrupted = false;
  /// True when the checksum is owed but not stamped: the message took the
  /// fault-injection path and arrived intact, so its body still hashes to it.
  bool checksum_pending = false;
  PackBuffer body;

  /// The checksum a checkpoint image records for this message.
  std::uint64_t stamped_checksum() const noexcept {
    return checksum_pending ? body.checksum() : checksum;
  }

  bool matches(int want_src, int want_tag) const noexcept {
    return (want_src == kAny || want_src == src) &&
           (want_tag == kAny || want_tag == tag);
  }
};

}  // namespace opalsim::pvm
