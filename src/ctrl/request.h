/**
 * @file
 * Memory requests and the bounded FIFO queues the controller schedules
 * from. A read names its requester with a plain tag, which comes back
 * in a ReadDone at data return.
 */
#ifndef QPRAC_CTRL_REQUEST_H
#define QPRAC_CTRL_REQUEST_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dram/address.h"

namespace qprac::ctrl {

/** Read tag meaning "no completion wanted" (writes, and reads nobody
 * waits for). */
inline constexpr std::uint32_t kNoCompletion = ~std::uint32_t{0};

/** One cache-line-sized memory request. */
struct Request
{
    enum class Type
    {
        Read,
        Write,
    };

    Type type = Type::Read;
    Addr addr = 0;
    dram::DecodedAddr dec;
    int flat_bank = 0;
    Cycle arrive = 0;
    std::uint64_t id = 0;
    int source = 0; ///< requesting core / generator id

    /** Requester's completion tag (reads); kNoCompletion = none. */
    std::uint32_t tag = kNoCompletion;
};

/** One read's data return: the cycle and the requester's tag. */
struct ReadDone
{
    Cycle at = 0;
    std::uint32_t tag = kNoCompletion;
};

/** Bounded arrival-ordered request queue. */
class RequestQueue
{
  public:
    explicit RequestQueue(int capacity);

    bool full() const { return size() >= capacity_; }
    bool empty() const { return q_.empty(); }
    int size() const { return static_cast<int>(q_.size()); }
    int capacity() const { return capacity_; }

    void push(Request&& req);
    Request& at(int i) { return q_[static_cast<std::size_t>(i)]; }
    const Request& at(int i) const { return q_[static_cast<std::size_t>(i)]; }

    /** Remove entry @p i preserving arrival order of the rest. */
    void erase(int i);

  private:
    std::vector<Request> q_;
    int capacity_;
};

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_REQUEST_H
