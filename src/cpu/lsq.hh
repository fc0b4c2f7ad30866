/**
 * @file
 * Load/store queue: tracks in-flight memory operations in the memory
 * domain, provides store-to-load forwarding by address match, and
 * holds stores until commit releases them to the D-cache.
 */

#ifndef CPU_LSQ_HH
#define CPU_LSQ_HH

#include <cstdint>
#include <vector>

#include "isa/dyn_inst.hh"

namespace gals
{

/**
 * Unified LSQ (capacity shared between loads and stores), in program
 * order. Entries cache what the searches compare, so only a candidate
 * store's completion flag is read from its DynInst.
 */
class Lsq
{
  public:
    explicit Lsq(unsigned capacity);

    bool full() const { return q_.size() >= capacity_; }
    unsigned size() const { return static_cast<unsigned>(q_.size()); }
    unsigned capacity() const { return capacity_; }

    /** Insert a memory instruction (program order). */
    void insert(const DynInstPtr &inst);

    /**
     * Would a load at @p addr forward from an older, executed store?
     * Line-granularity match, newest older store wins.
     */
    bool loadForwards(const DynInstPtr &load) const;

    /** Remove a completed load (loads leave at completion). */
    void removeLoad(InstSeqNum seq);

    /** Remove a committed store. */
    void removeStore(InstSeqNum seq);

    /** Squash everything younger than @p afterSeq. @return count. */
    unsigned squashAfter(InstSeqNum afterSeq);

    std::uint64_t forwarded() const { return forwarded_; }

  private:
    struct Entry
    {
        InstSeqNum seq;
        std::uint64_t line; ///< memAddr's 32B line
        bool store;
        DynInstPtr inst;
    };

    /** Remove the entry for @p seq, which must be a store iff
     *  @p store. */
    void remove(InstSeqNum seq, bool store);

    unsigned capacity_;
    std::vector<Entry> q_;
    mutable std::uint64_t forwarded_ = 0;
};

} // namespace gals

#endif // CPU_LSQ_HH
