#ifndef AQUA_EXEC_WORKER_LOCAL_H_
#define AQUA_EXEC_WORKER_LOCAL_H_

#include <cstddef>
#include <deque>

namespace aqua::exec {

/// Per-worker-slot storage for a parallel section.
///
/// A fan-out (see `morsel.h`) hands every participant a *worker slot*:
/// slot 0 is the calling thread, slots 1..n-1 are helper tasks. At most one
/// participant owns a slot at a time, so `at(slot)` needs no locking — this
/// is how per-worker state (e.g. a lazily determinized DFA cache) is shared
/// across the morsels one worker runs without any cross-thread
/// synchronization. Slots are cache-line padded against false sharing.
template <typename T>
class WorkerLocal {
 public:
  explicit WorkerLocal(size_t slots) : slots_(slots) {}

  /// Fills every slot with `make()`, for a `T` built from shared state.
  template <typename Make>
  WorkerLocal(size_t slots, Make make) {
    for (size_t i = 0; i < slots; ++i) slots_.push_back(Padded{make()});
  }

  size_t size() const { return slots_.size(); }

  T& at(size_t slot) { return slots_[slot].value; }

 private:
  struct alignas(64) Padded {
    T value{};
  };
  std::deque<Padded> slots_;
};

}  // namespace aqua::exec

#endif  // AQUA_EXEC_WORKER_LOCAL_H_
