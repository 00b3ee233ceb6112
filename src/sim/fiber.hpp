// Cooperative user-level fibers.
//
// Every simulated MPI rank runs as a fiber, so application code reads like
// ordinary blocking MPI code while the discrete-event engine multiplexes
// thousands of ranks on one OS thread. Stacks are mmap-ed with a PROT_NONE
// guard page below, so a rank that overflows its stack faults immediately
// instead of corrupting a neighbour.
//
// On x86-64 the context switch is a hand-rolled callee-saved-register swap
// (boost::context style): glibc's swapcontext saves and restores the signal
// mask with an rt_sigprocmask syscall per switch, which costs more than the
// entire simulate-one-element hot path. Other architectures keep the
// portable ucontext implementation.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>

#if defined(__x86_64__) && (defined(__linux__) || defined(__unix__))
#define DS_FIBER_RAW_X86_64 1
#else
#include <ucontext.h>
#endif

// AddressSanitizer needs to be told about manual stack switches (its shadow
// stack and fake-stack machinery track one stack per thread): every switch
// is bracketed with __sanitizer_start/finish_switch_fiber, and fiber stacks
// are scaled up for the instrumented frames' extra footprint.
#if defined(__SANITIZE_ADDRESS__)
#define DS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DS_FIBER_ASAN 1
#endif
#endif

namespace ds::sim {

class Fiber {
 public:
  /// 64 KiB is enough for the bundled apps; raise via EngineConfig for deep
  /// call chains. 8,192 ranks at the default cost 512 MiB of address space.
  static constexpr std::size_t kDefaultStackBytes = 64 * 1024;

  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the calling context into the fiber; returns when the fiber
  /// yields or finishes. Rethrows any exception that escaped the fiber body.
  void resume();

  /// Must be called from inside a fiber: switch back to whoever resumed it.
  static void yield();

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// True when the calling code is executing inside some fiber.
  [[nodiscard]] static bool in_fiber() noexcept;

 private:
  void run_body();

  std::function<void()> body_;
  void* stack_ = nullptr;          // mmap base (guard page + stack)
  std::size_t map_bytes_ = 0;
#if DS_FIBER_RAW_X86_64
  friend void fiber_entry_thunk(Fiber* fiber);
  void* fiber_sp_ = nullptr;  ///< fiber's saved stack pointer while yielded
  void* host_sp_ = nullptr;   ///< resumer's saved stack pointer while running
#ifdef DS_FIBER_ASAN
  void* asan_host_fake_ = nullptr;   ///< host's fake stack while fiber runs
  void* asan_fiber_fake_ = nullptr;  ///< fiber's fake stack while yielded
  const void* asan_host_bottom_ = nullptr;  ///< host stack, learned on entry
  std::size_t asan_host_size_ = 0;
#endif
#else
  static void trampoline(unsigned hi, unsigned lo);
  ucontext_t context_{};
  ucontext_t return_context_{};
#endif
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr pending_exception_;
};

}  // namespace ds::sim
