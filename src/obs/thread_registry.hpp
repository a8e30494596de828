// The one per-thread registration protocol of the observability layer.
//
// Every obs sink that keeps per-thread state (the tracer's flight ring and
// sampled buffer, the profiler's region accumulators) registers it here:
// a thread's first call allocates its record and publishes it with one
// release CAS push onto an intrusive singly-linked list; every later call
// is one generation-keyed thread_local check. Readers (dumpers, the
// latency engine, the Perfetto exporter) acquire the list head and walk it
// concurrently with writers and new registrations, never taking a lock.
// Records are reclaimed only by the registry's destructor.
//
// Names: a record starts as "thread-N" (N = its immutable registration
// index); the owner thread's first setName() writes the custom name once
// and then release-publishes a flag (first name wins), so a walker reads
// either the default or the complete custom name, never a string
// mid-mutation.
//
// The list head is a uintptr_t gravel::atomic: the verify shim arbitrates
// integral words only, and this protocol is model-checked under
// GRAVEL_VERIFY=1 (tests/verify_scenarios.hpp, threadRegistryWalk).
//
// gravel-lint: hot-path
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/atomic.hpp"

namespace gravel::obs {

/// Base of every record a ThreadRegistry publishes: the list link and the
/// track name. Payload types derive from it.
class RegisteredThread {
 public:
  /// The custom name once published, else the "thread-N" default.
  // gravel-analyze: cold — dump-time reader, not a record site.
  std::string name() const {
    // pairs-with: registry.named
    if (named_.load(std::memory_order_acquire)) {
      verify::dataLoad(&custom_name_);
      return custom_name_;
    }
    return "thread-" + std::to_string(index_);
  }

  /// Owner thread only. First name wins; later calls are ignored so a
  /// walker never observes a string being rewritten.
  // gravel-analyze: cold — once-per-thread naming.
  void setName(const std::string& name) {
    if (named_.load(std::memory_order_relaxed)) return;
    verify::dataStore(&custom_name_);
    custom_name_ = name;
    named_.store(true, std::memory_order_release);  // pairs-with: registry.named
  }

 private:
  template <class>
  friend class ThreadRegistry;

  std::string custom_name_;
  RegisteredThread* next_ = nullptr;  ///< immutable after publication
  std::uint32_t index_ = 0;           ///< immutable after publication
  atomic<bool> named_{false};
};

/// Lock-free registry of per-thread records of type T (derived from
/// RegisteredThread), one per (thread, registry) pair.
template <class T>
class ThreadRegistry {
  static_assert(std::is_base_of_v<RegisteredThread, T>);

 public:
  ThreadRegistry() : gen_(nextGeneration()) {}

  ~ThreadRegistry() {
    RegisteredThread* t = head();
    while (t != nullptr) {
      RegisteredThread* next = t->next_;
      delete static_cast<T*>(t);
      t = next;
    }
  }

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  /// The calling thread's record, constructed from `args` and registered
  /// on the thread's first call. After that: one thread_local compare.
  template <class... Args>
  T& local(Args&&... args) {
    // Generation (not pointer) keyed: a new registry at a recycled address
    // must not inherit a record of a destroyed one.
    thread_local std::uint64_t tlsGen = 0;
    thread_local T* tlsRecord = nullptr;
    if (tlsGen != gen_) [[unlikely]] {
      tlsRecord = push(std::forward<Args>(args)...);
      tlsGen = gen_;
    }
    return *tlsRecord;
  }

  /// Every record registered so far, newest first. Safe concurrent with
  /// registration and with the records' writers.
  // gravel-analyze: cold — dump-time walker.
  std::vector<const T*> records() const {
    std::vector<const T*> out;
    for (const RegisteredThread* t = head(); t != nullptr; t = t->next_) {
      verify::dataLoad(&t->next_);  // the record, published by push()
      out.push_back(static_cast<const T*>(t));
    }
    return out;
  }

 private:
  static std::uint64_t nextGeneration() noexcept {
    static atomic<std::uint64_t> gen{1};
    return gen.fetch_add(1, std::memory_order_relaxed);
  }

  // gravel-analyze: cold — once-per-thread slow path; local() amortizes
  // the one allocation + CAS over every later call.
  template <class... Args>
  T* push(Args&&... args) {
    T* t = new T(std::forward<Args>(args)...);
    t->index_ =
        std::uint32_t(count_.fetch_add(1, std::memory_order_relaxed) + 1);
    verify::dataStore(&t->next_);  // the record, as constructed above
    std::uintptr_t expected = head_.load(std::memory_order_relaxed);
    do {
      t->next_ = reinterpret_cast<RegisteredThread*>(expected);
    } while (!head_.compare_exchange_weak(
        expected, reinterpret_cast<std::uintptr_t>(t),
        // pairs-with: registry.push
        std::memory_order_release, std::memory_order_relaxed));
    return t;
  }

  RegisteredThread* head() const noexcept {
    // pairs-with: registry.push
    return reinterpret_cast<RegisteredThread*>(
        head_.load(std::memory_order_acquire));
  }

  std::uint64_t gen_;
  atomic<std::uintptr_t> head_{0};
  atomic<std::uint64_t> count_{0};
};

}  // namespace gravel::obs
