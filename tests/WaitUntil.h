//===- WaitUntil.h - Condition polling for timing-free tests ----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Tests that wait for a background thread wait for the condition they
// then assert, not for a fixed time, so a loaded machine makes them
// slower but never fails them. The deadline only stops a hung test.
//
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_TESTS_WAITUNTIL_H
#define CSWITCH_TESTS_WAITUNTIL_H

#include <chrono>
#include <thread>

namespace cswitch {

/// Polls \p Condition every millisecond until it holds or \p Deadline
/// passes. \returns whether it held.
template <typename Predicate>
bool waitUntil(Predicate Condition,
               std::chrono::milliseconds Deadline = std::chrono::seconds(30)) {
  auto GiveUp = std::chrono::steady_clock::now() + Deadline;
  while (!Condition()) {
    if (std::chrono::steady_clock::now() >= GiveUp)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

} // namespace cswitch

#endif // CSWITCH_TESTS_WAITUNTIL_H
