#include "ingest/transport.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>

namespace efd::ingest {

namespace {

std::uint32_t* futex_address(std::atomic<std::uint32_t>& word) noexcept {
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                    std::atomic<std::uint32_t>::is_always_lock_free,
                "futex words must be plain lock-free 32-bit atomics");
  return reinterpret_cast<std::uint32_t*>(&word);
}

}  // namespace

void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                std::chrono::nanoseconds timeout, bool shared) noexcept {
  const auto seconds =
      std::chrono::duration_cast<std::chrono::seconds>(timeout);
  timespec relative{};
  relative.tv_sec = static_cast<std::time_t>(seconds.count());
  relative.tv_nsec = static_cast<long>((timeout - seconds).count());
  // EINTR, EAGAIN (the word already moved) and ETIMEDOUT all mean
  // "re-check": the caller loops on its own condition and deadline.
  ::syscall(SYS_futex, futex_address(word),
            shared ? FUTEX_WAIT : FUTEX_WAIT_PRIVATE, expected, &relative,
            nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>& word, bool shared) noexcept {
  ::syscall(SYS_futex, futex_address(word),
            shared ? FUTEX_WAKE : FUTEX_WAKE_PRIVATE, INT_MAX, nullptr,
            nullptr, 0);
}

}  // namespace efd::ingest
