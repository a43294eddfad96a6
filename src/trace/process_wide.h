// The one install hook for process-wide trace sinks (LatencyTracer,
// CausalTracer, FlightRecorder). Stamp and tap sites in every device reach
// the active sink through T::Current(); with none installed a site costs
// one load + branch.
#ifndef SRC_TRACE_PROCESS_WIDE_H_
#define SRC_TRACE_PROCESS_WIDE_H_

namespace tas {

// CRTP base: `class LatencyTracer : public ProcessWide<LatencyTracer>`.
template <typename T>
class ProcessWide {
 public:
  static T* Current() { return current_; }
  // Makes `instance` current (nullptr uninstalls); returns the previous one.
  static T* Install(T* instance) {
    T* previous = current_;
    current_ = instance;
    return previous;
  }

  // First-wins install held for an owner's lifetime: Claim installs
  // `instance` only when nothing is current, and the destructor uninstalls
  // it if it is still current. Records cross hosts, so the first host that
  // enables a sink collects every host's records.
  class Claim {
   public:
    Claim() = default;
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    ~Claim() {
      if (held_ != nullptr && current_ == held_) {
        current_ = nullptr;
      }
    }

    void Take(T* instance) {
      if (current_ == nullptr) {
        current_ = held_ = instance;
      }
    }

   private:
    T* held_ = nullptr;
  };

 private:
  static inline T* current_ = nullptr;
};

}  // namespace tas

#endif  // SRC_TRACE_PROCESS_WIDE_H_
