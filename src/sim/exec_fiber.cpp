// Fiber execution backend: every process runs on a user-space stackful
// context with its own guard-paged stack, all on the engine's OS thread. A
// process<->engine handoff is a register swap — no futex, no scheduler, no
// kernel context switch — which removes the dominant wall-clock cost from
// the simulation hot path.
//
// One swap mechanism per platform:
//
//   * x86-64 — gdrshmem_fiber_switch (fiber_switch_x86_64.S): saves the
//              C-ABI callee-saved registers plus mxcsr/x87cw and swaps rsp.
//              ~20 instructions, no syscall. A never-started fiber is
//              entered through a hand-laid boot frame whose return address
//              is gdrshmem_fiber_boot.
//   * others — makecontext/swapcontext (glibc's swapcontext issues an
//              rt_sigprocmask syscall per swap).
//
// Either way control transfers only at the engine's wait points, so the
// event trace matches the thread backend bit for bit.
//
// Exceptions (including ProcessKilled on daemon shutdown) unwind normally
// through a fiber stack and are contained by ExecutionBackend::run_body
// before the final swap back to the engine, so kill/unwind semantics match
// the thread backend exactly. No exception ever crosses a switch.
//
// Under AddressSanitizer the stack switches are announced through the
// __sanitizer_*_switch_fiber API so ASan tracks the live stack bounds;
// without that, fake-stack bookkeeping misfires across the swap. The
// annotations are the same on every platform.
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <system_error>

#include "sim/engine.hpp"
#include "sim/exec_backend.hpp"
#include "sim/stack_pool.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GDRSHMEM_ASAN_FIBERS 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define GDRSHMEM_ASAN_FIBERS 1
#endif

#ifdef GDRSHMEM_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
#define GDRSHMEM_FAST_FIBERS 1
#else
#include <ucontext.h>
#endif

#ifdef GDRSHMEM_FAST_FIBERS
extern "C" {
/// Save callee-saved state on the current stack, store rsp through
/// `save_sp`, switch to `restore_sp`, restore and return on the new stack.
void gdrshmem_fiber_switch(void** save_sp, void* restore_sp);
/// First-entry shim: moves the boot frame's r12 slot (a FiberExec*) into
/// rdi and tail-jumps to the rbx slot (the C++ entry function).
void gdrshmem_fiber_boot();
}
#endif

namespace gdrshmem::sim {

std::size_t fiber_stack_bytes_from_env() {
  const char* v = std::getenv("GDRSHMEM_SIM_STACK_KB");
  if (v == nullptr) return std::size_t{1} << 20;  // 1 MiB
  char* end = nullptr;
  const long kb = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || kb < 64 ||
      kb > std::numeric_limits<long>::max() / 1024) {
    throw std::invalid_argument(
        "GDRSHMEM_SIM_STACK_KB: expected an integer stack size in KiB >= 64, "
        "got \"" + std::string(v) + "\"");
  }
  return static_cast<std::size_t>(kb) * 1024;
}

namespace {

/// Read once per process: every fiber of every engine gets the same size.
std::size_t fiber_stack_bytes() {
  static const std::size_t bytes = fiber_stack_bytes_from_env();
  return bytes;
}

class FiberBackend;

struct FiberExec final : ProcessExec {
  FiberBackend* owner = nullptr;
  Process* proc = nullptr;
#ifdef GDRSHMEM_FAST_FIBERS
  void* sp = nullptr;   ///< suspended stack pointer, or the boot frame
#else
  ucontext_t ctx{};
#endif
  FiberStack stack{};   ///< guard-paged mapping, leased from the pool
#ifdef GDRSHMEM_ASAN_FIBERS
  void* fake_stack = nullptr;
#endif

  ~FiberExec() override {
    // Return the mapping (guard page intact, pages still committed) to the
    // process-wide pool so the next spawn of this geometry skips the
    // mmap/mprotect pair entirely.
    FiberStackPool::instance().release(stack);
  }
};

class FiberBackend final : public ExecutionBackend {
 public:
  BackendKind kind() const override { return BackendKind::kFibers; }

  std::unique_ptr<ProcessExec> create(Process& p) override {
    auto ex = std::make_unique<FiberExec>();
    ex->owner = this;
    ex->proc = &p;

    ex->stack = FiberStackPool::instance().acquire(fiber_stack_bytes());

#ifdef GDRSHMEM_FAST_FIBERS
    // Lay out the boot frame gdrshmem_fiber_switch will "return" through on
    // first entry. From the switch's restore sequence upward:
    //   +0  x87 control word (2B) | pad | mxcsr (4B at +4)
    //   +8  r15   +16 r14   +24 r13
    //   +32 r12  <- FiberExec*            (boot shim moves it to rdi)
    //   +40 rbx  <- &fiber_main           (boot shim jumps here)
    //   +48 rbp = 0 (frame-chain terminator for unwinders)
    //   +56 return address <- &gdrshmem_fiber_boot
    // With `top` 16-aligned and the frame at top-72, fiber_main is entered
    // with rsp = top-8, i.e. rsp % 16 == 8 — exactly the System V state
    // after a `call`, so its prologue aligns correctly.
    auto* top = static_cast<unsigned char*>(ex->stack.stack_lo) +
                ex->stack.stack_len;
    const auto t = reinterpret_cast<std::uintptr_t>(top) & ~std::uintptr_t{15};
    auto* frame = reinterpret_cast<void**>(t - 72);
    std::memset(frame, 0, 72);
    std::uint32_t mxcsr = 0;
    std::uint16_t fcw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
    std::memcpy(reinterpret_cast<unsigned char*>(frame) + 0, &fcw, sizeof fcw);
    std::memcpy(reinterpret_cast<unsigned char*>(frame) + 4, &mxcsr,
                sizeof mxcsr);
    frame[4] = ex.get();
    frame[5] = reinterpret_cast<void*>(&FiberBackend::fiber_main);
    frame[7] = reinterpret_cast<void*>(&gdrshmem_fiber_boot);
    ex->sp = frame;
#else
    if (::getcontext(&ex->ctx) != 0) {
      throw std::system_error(errno, std::generic_category(), "getcontext");
    }
    ex->ctx.uc_stack.ss_sp = ex->stack.stack_lo;
    ex->ctx.uc_stack.ss_size = ex->stack.stack_len;
    ex->ctx.uc_link = nullptr;  // fibers exit via an explicit final swap
    // makecontext only passes ints; smuggle the FiberExec* as two halves.
    const auto ptr = reinterpret_cast<std::uintptr_t>(ex.get());
    ::makecontext(&ex->ctx, reinterpret_cast<void (*)()>(&FiberBackend::trampoline),
                  2, static_cast<unsigned>(ptr >> 32),
                  static_cast<unsigned>(ptr & 0xffffffffu));
#endif
    return ex;
  }

  void resume(Process& p) override {
    auto* fx = static_cast<FiberExec*>(exec(p));
    assert(current_ == nullptr && "resume must be called from engine context");
    current_ = fx;
    set_current(fx->proc);
#ifdef GDRSHMEM_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&engine_fake_stack_, fx->stack.stack_lo,
                                   fx->stack.stack_len);
#endif
#ifdef GDRSHMEM_FAST_FIBERS
    gdrshmem_fiber_switch(&engine_sp_, fx->sp);
#else
    ::swapcontext(&engine_ctx_, &fx->ctx);
#endif
#ifdef GDRSHMEM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(engine_fake_stack_, nullptr, nullptr);
#endif
    set_current(nullptr);
    current_ = nullptr;
  }

  void yield(Process& p) override {
    auto* fx = static_cast<FiberExec*>(exec(p));
    assert(current_ == fx && "yield must be called from the running fiber");
    switch_to_engine(fx, /*dying=*/false);
  }

 private:
  /// Shared fiber body: first-entry bookkeeping, the process body, and the
  /// final swap. Entered via the boot shim (x86-64) or trampoline (others).
  static void fiber_main(FiberExec* fx) {
    FiberBackend* be = fx->owner;
#ifdef GDRSHMEM_ASAN_FIBERS
    // First entry: tell ASan we landed on this fiber's stack, and learn the
    // engine stack's bounds (the context we came from) for switching back.
    __sanitizer_finish_switch_fiber(nullptr, &be->engine_stack_bottom_,
                                    &be->engine_stack_size_);
#endif
    run_body(*fx->proc);
    // Final swap: the fiber is done and will never be resumed again.
    be->switch_to_engine(fx, /*dying=*/true);
    // Resuming a finished fiber would land here and then fall off the end of
    // the entry function: a jump through a zeroed frame on x86-64, a silent
    // exit() elsewhere (ucontext with uc_link == nullptr).
    // Abort unconditionally so such a bug is loud in every build
    // configuration, not just ones with asserts enabled.
    std::fprintf(stderr, "fatal: finished fiber '%s' was resumed\n",
                 fx->proc->name().c_str());
    std::abort();
  }

#ifndef GDRSHMEM_FAST_FIBERS
  static void trampoline(unsigned hi, unsigned lo) {
    fiber_main(reinterpret_cast<FiberExec*>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo)));
  }
#endif

  void switch_to_engine(FiberExec* fx, bool dying) {
#ifdef GDRSHMEM_ASAN_FIBERS
    // fake_stack_save = nullptr tells ASan this fiber's stack is going away.
    __sanitizer_start_switch_fiber(dying ? nullptr : &fx->fake_stack,
                                   engine_stack_bottom_, engine_stack_size_);
#else
    (void)dying;
#endif
#ifdef GDRSHMEM_FAST_FIBERS
    gdrshmem_fiber_switch(&fx->sp, engine_sp_);
#else
    ::swapcontext(&fx->ctx, &engine_ctx_);
#endif
#ifdef GDRSHMEM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fx->fake_stack, nullptr, nullptr);
#endif
  }

#ifdef GDRSHMEM_FAST_FIBERS
  void* engine_sp_ = nullptr;
#else
  ucontext_t engine_ctx_{};
#endif
  FiberExec* current_ = nullptr;
#ifdef GDRSHMEM_ASAN_FIBERS
  void* engine_fake_stack_ = nullptr;
  const void* engine_stack_bottom_ = nullptr;
  std::size_t engine_stack_size_ = 0;
#endif
};

}  // namespace

std::unique_ptr<ExecutionBackend> make_fiber_backend() {
  return std::make_unique<FiberBackend>();
}

}  // namespace gdrshmem::sim
