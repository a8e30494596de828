#include "simt/fiber.hpp"

#include <cstring>

// Stack switches must be announced to AddressSanitizer or its stack-bounds
// checks misfire on the foreign stack (google/sanitizers#189). These hooks
// compile to nothing without -fsanitize=address.
#if defined(__SANITIZE_ADDRESS__)
#define GRAVEL_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRAVEL_ASAN_FIBERS 1
#endif
#endif
#ifndef GRAVEL_ASAN_FIBERS
#define GRAVEL_ASAN_FIBERS 0
#endif
#if GRAVEL_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

extern "C" {
/// Assembly switch in context.S: saves the current continuation into
/// *save_sp and resumes restore_sp.
void gravel_ctx_swap(void** save_sp, void* restore_sp);
/// Assembly entry shim; transfers control to gravel_fiber_trampoline with
/// the Fiber* as argument.
void gravel_ctx_entry();
}

namespace gravel::simt {

namespace {
thread_local Fiber* tlsCurrentFiber = nullptr;

/// The scheduler side of one resume() call: where fibers return to. It
/// lives on the resume() caller's stack, so a kernel that itself runs a
/// device (a nested scheduler) gets its own.
struct SchedulerContext {
  void* sp = nullptr;         // saved SP of the resume() caller
  Fiber* returned = nullptr;  // the fiber that switched back
  // ASan: the scheduler stack's bounds, learned on the first fiber arrival
  // of this resume() (which always comes from the scheduler). Later
  // arrivals may come from a sibling and must not overwrite them.
  const void* stackBottom = nullptr;
  std::size_t stackSize = 0;
};
thread_local SchedulerContext* tlsScheduler = nullptr;

// Wrap the ASan fiber API so every switch site reads the same with and
// without sanitizers. Protocol: the departing context calls startSwitch with
// the *destination* stack's bounds (nullptr fakeSave on a final exit frees
// the fake stack); the first statement executed after arriving calls
// finishSwitch with the fakeSave this context stashed before it left.
inline void startSwitch(void** fakeSave, const void* bottom,
                        std::size_t size) {
#if GRAVEL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fakeSave, bottom, size);
#else
  (void)fakeSave;
  (void)bottom;
  (void)size;
#endif
}

inline void finishSwitch(void* fakeSave, const void** bottomOld,
                         std::size_t* sizeOld) {
#if GRAVEL_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fakeSave, bottomOld, sizeOld);
#else
  (void)fakeSave;
  (void)bottomOld;
  (void)sizeOld;
#endif
}

/// Finishes a switch that arrived on a fiber stack.
inline void arriveOnFiber(void* fakeSave) {
  SchedulerContext* s = tlsScheduler;
  if (s->stackBottom == nullptr) {
    finishSwitch(fakeSave, &s->stackBottom, &s->stackSize);
  } else {
    finishSwitch(fakeSave, nullptr, nullptr);
  }
}
}  // namespace

// The entry path must stay un-instrumented under ASan: the compiler deduces
// it never returns and would plant __asan_handle_no_return, which tries to
// unpoison "the thread stack" while running on the fiber's heap-allocated
// one.
#if GRAVEL_ASAN_FIBERS
#define GRAVEL_NO_ASAN __attribute__((no_sanitize_address))
#else
#define GRAVEL_NO_ASAN
#endif

/// C++ side of the fiber entry path. Runs the body, captures any exception,
/// and switches back to the scheduler for good. Never returns.
GRAVEL_NO_ASAN void fiberTrampoline(Fiber* f) noexcept {
  arriveOnFiber(nullptr);  // first arrival: nothing to restore
  try {
    f->body_();
  } catch (...) {
    f->pending_ = std::current_exception();
  }
  f->finished_ = true;
  // Final switch out; fiberSp_ is dead after this (nullptr fakeSave tells
  // ASan to release this stack's fake frames).
  SchedulerContext* s = tlsScheduler;
  s->returned = f;
  startSwitch(nullptr, s->stackBottom, s->stackSize);
  gravel_ctx_swap(&f->fiberSp_, s->sp);
  // Unreachable: a finished fiber is never resumed (resume() checks).
  std::terminate();
}

extern "C" GRAVEL_NO_ASAN void gravel_fiber_trampoline(void* f) {
  fiberTrampoline(static_cast<Fiber*>(f));
}

Fiber::Fiber(std::size_t stackBytes, std::uint32_t id)
    : stack_(new std::byte[stackBytes]), stackBytes_(stackBytes), id_(id) {}

Fiber::~Fiber() {
  // Destroying a suspended (started, unfinished) fiber leaks whatever is on
  // its stack; the engine never does this (deadlocks throw from resume()),
  // but we do not try to unwind foreign stacks here either.
}

void Fiber::primeStack() {
  // Build the initial frame the assembly switch will pop:
  //   [r15][r14][r13][r12 = Fiber*][rbx][rbp][return addr = gravel_ctx_entry]
  // After the pops in gravel_ctx_swap, `ret` consumes the entry address and
  // leaves RSP 16-byte aligned at gravel_ctx_entry, whose `call` then
  // produces the standard rsp%16==8 at the trampoline entry.
  std::uintptr_t top =
      reinterpret_cast<std::uintptr_t>(stack_.get()) + stackBytes_;
  top &= ~static_cast<std::uintptr_t>(15);  // align the stack top
  // Nine words below the aligned top: 7 frame words plus one spare so that
  // after the 6 pops and the `ret`, RSP % 16 == 0 at gravel_ctx_entry —
  // whose `call` then produces the SysV-required rsp%16==8 at the
  // trampoline entry.
  auto* frame = reinterpret_cast<void**>(top) - 9;
  frame[0] = nullptr;                                 // r15
  frame[1] = nullptr;                                 // r14
  frame[2] = nullptr;                                 // r13
  frame[3] = this;                                    // r12 -> Fiber*
  frame[4] = nullptr;                                 // rbx
  frame[5] = nullptr;                                 // rbp
  frame[6] = reinterpret_cast<void*>(&gravel_ctx_entry);  // ret target
  fiberSp_ = frame;
}

void Fiber::reset(std::function<void()> body) {
  GRAVEL_CHECK_MSG(finished_, "cannot reset a running fiber");
  body_ = std::move(body);
  pending_ = nullptr;
  started_ = false;
  finished_ = false;
}

void Fiber::abandon() {
  GRAVEL_CHECK_MSG(tlsCurrentFiber != this, "cannot abandon the running fiber");
#if GRAVEL_ASAN_FIBERS
  // The dead frames' redzones would poison the next body's frames.
  if (started_) __asan_unpoison_memory_region(stack_.get(), stackBytes_);
#endif
  body_ = nullptr;
  pending_ = nullptr;
  started_ = false;
  finished_ = true;
}

void* Fiber::enter(void** saveSp) {
  if (!started_) {
    primeStack();
    started_ = true;
  }
  tlsCurrentFiber = this;
  void* fakeSave = nullptr;
  startSwitch(&fakeSave, stack_.get(), stackBytes_);
  gravel_ctx_swap(saveSp, fiberSp_);
  return fakeSave;
}

Fiber& Fiber::resume() {
  GRAVEL_CHECK_MSG(!finished_, "cannot resume a finished fiber");
  SchedulerContext ctx;
  SchedulerContext* const outer = tlsScheduler;
  Fiber* const outerFiber = tlsCurrentFiber;
  tlsScheduler = &ctx;
  finishSwitch(enter(&ctx.sp), nullptr, nullptr);
  tlsScheduler = outer;
  tlsCurrentFiber = outerFiber;
  Fiber& back = *ctx.returned;
  if (back.pending_) {
    auto e = back.pending_;
    back.pending_ = nullptr;
    std::rethrow_exception(e);
  }
  return back;
}

void Fiber::yield() {
  GRAVEL_CHECK_MSG(tlsCurrentFiber == this, "yield() outside the fiber");
  SchedulerContext* s = tlsScheduler;
  s->returned = this;
  void* fakeSave = nullptr;
  startSwitch(&fakeSave, s->stackBottom, s->stackSize);
  gravel_ctx_swap(&fiberSp_, s->sp);
  arriveOnFiber(fakeSave);
}

void Fiber::switchTo(Fiber& next) {
  GRAVEL_CHECK_MSG(tlsCurrentFiber == this, "switchTo() outside the fiber");
  GRAVEL_CHECK_MSG(&next != this && !next.finished_,
                   "switchTo() needs an unfinished sibling");
  arriveOnFiber(next.enter(&fiberSp_));
}

Fiber* Fiber::current() noexcept { return tlsCurrentFiber; }

}  // namespace gravel::simt
