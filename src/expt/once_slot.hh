/**
 * @file
 * A value built once, by the first thread that needs it, and shared
 * by every thread that reads it.
 */

#ifndef MLC_EXPT_ONCE_SLOT_HH
#define MLC_EXPT_ONCE_SLOT_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>

namespace mlc {
namespace expt {

/**
 * The latch in front of a lazily built value (a deferred trace, a
 * FrontLog, a LevelTape): build() runs its function exactly once,
 * whoever calls it, and blocks the callers that arrive meanwhile.
 * A build that throws is not retried: what it threw is kept and
 * rethrown to every caller, the builder included. (Not every
 * pthread_once re-arms when its routine throws; ThreadSanitizer's
 * leaves the waiters spinning, so the routine here never throws.)
 * Once the value is built, build() costs one atomic load.
 *
 * claim() lets a caller with other work pick the order: it takes an
 * unclaimed slot, so the caller should build now, and reports a
 * slot another caller has claimed but not finished, so the caller
 * can come back later. The claim only orders work; build() runs the
 * function even on an unclaimed slot.
 */
class OnceSlot
{
  public:
    /** True once the build has succeeded. Never waits. */
    bool
    ready() const
    {
        return state_.load(std::memory_order_acquire) == State::Ready;
    }

    /** False only while another caller's claimed build is
     *  unfinished; otherwise build() will not wait on anyone. */
    bool
    claim()
    {
        State seen = State::Empty;
        return state_.compare_exchange_strong(seen, State::Claimed) ||
               seen != State::Claimed;
    }

    /** Run @p fn unless some caller has; rethrow what it threw. */
    template <typename Fn>
    void
    build(Fn &&fn)
    {
        if (ready())
            return;
        std::call_once(once_, [&] {
            try {
                fn();
                state_.store(State::Ready, std::memory_order_release);
            } catch (...) {
                failed_ = std::current_exception();
                state_.store(State::Failed, std::memory_order_release);
            }
        });
        if (failed_)
            std::rethrow_exception(failed_);
    }

  private:
    enum class State : std::uint8_t { Empty, Claimed, Ready, Failed };

    std::once_flag once_;
    std::atomic<State> state_{State::Empty};
    std::exception_ptr failed_; //!< written once, inside once_
};

} // namespace expt
} // namespace mlc

#endif // MLC_EXPT_ONCE_SLOT_HH
