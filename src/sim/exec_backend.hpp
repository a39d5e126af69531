// Execution backends for the virtual-time engine.
//
// A `Process` is a cooperative thread of control; *how* control transfers
// between the engine loop and a process body is a backend concern:
//
//   * fibers  — user-space stackful contexts with guard-paged stacks; a
//               handoff is a function-call-cost register swap on the
//               engine's own OS thread. Default.
//   * threads — one OS thread per process with a mutex/condvar baton; a
//               handoff costs two kernel context switches. Kept as a
//               fallback and as the determinism cross-check.
//
// Exactly one context (engine or one process) runs at any instant under
// either backend, so event order — and therefore every simulation result —
// is bit-identical across backends.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace gdrshmem::sim {

class Engine;
class Process;

enum class BackendKind { kThreads, kFibers };

/// Backend chosen by GDRSHMEM_SIM_BACKEND ("threads" | "fibers");
/// fibers when unset. Unknown and empty values throw std::invalid_argument.
BackendKind backend_from_env();

/// Usable bytes per fiber stack (guard page excluded) from
/// GDRSHMEM_SIM_STACK_KB, in KiB and >= 64; 1 MiB when unset. Stacks are
/// lazily committed by the kernel, so the default costs address space
/// only. Bad and empty values throw std::invalid_argument.
std::size_t fiber_stack_bytes_from_env();

const char* to_string(BackendKind k);

/// Per-process execution state (a fiber stack + context, or an OS thread +
/// condvar). Owned by the Process; destroyed only once the process is done.
class ProcessExec {
 public:
  virtual ~ProcessExec() = default;
};

/// Strategy for transferring control between the engine and processes.
/// All calls happen on the engine's OS thread or inside a process context it
/// resumed — never concurrently.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual BackendKind kind() const = 0;

  /// Create the execution state for `p`, primed to run its body on the first
  /// resume(). Called from Engine::spawn (engine or process context).
  virtual std::unique_ptr<ProcessExec> create(Process& p) = 0;

  /// Engine context: run `p` until it yields back or finishes.
  virtual void resume(Process& p) = 0;

  /// Process context (called from within `p`): give control back to the
  /// engine; returns when the engine next resumes `p`.
  virtual void yield(Process& p) = 0;

 protected:
  // Backend implementations are written against these helpers instead of
  // being friends of Process/Engine themselves.
  static void run_body(Process& p);          ///< standard body + kill/error wrap
  static ProcessExec* exec(Process& p);
  /// Maintain Process::current() for the calling OS thread. Thread backend:
  /// set once per process thread. Fiber backend: set/cleared around each
  /// context swap on the engine thread.
  static void set_current(Process* p);
};

std::unique_ptr<ExecutionBackend> make_thread_backend();
std::unique_ptr<ExecutionBackend> make_fiber_backend();
std::unique_ptr<ExecutionBackend> make_backend(BackendKind k);

}  // namespace gdrshmem::sim
