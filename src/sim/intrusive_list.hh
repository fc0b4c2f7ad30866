/**
 * @file
 * One intrusive doubly-linked list for every hot-path list in the
 * simulator.
 *
 * Two subsystems keep objects on allocation-free linked lists whose
 * links are embedded in the objects themselves: calendar-queue bucket
 * chains (ClockDomain) and clock-domain ticker lists
 * (ClockDomain::Ticker).
 * This header is their single implementation of the pointer surgery.
 *
 * A node type T embeds one IntrusiveLink<T, Tag> per list it can sit
 * on and exposes it through an accessor overloaded on the tag:
 *
 *   struct Node
 *   {
 *       IntrusiveLink<Node> link;
 *       IntrusiveLink<Node> &intrusiveLink(DefaultListTag)
 *       {
 *           return link;
 *       }
 *   };
 *   IntrusiveList<Node> list;
 *
 * Distinct tags let one object sit on several lists at once. The list
 * never owns, allocates or destroys nodes; linking and unlinking are
 * O(1) pointer splices. A node must not be linked into two lists of
 * the same tag at a time (links are reused wholesale, there is no
 * membership check beyond debug null-ness).
 */

#ifndef SIM_INTRUSIVE_LIST_HH
#define SIM_INTRUSIVE_LIST_HH

#include <cstddef>

namespace gals
{

/** Tag for node types that only ever sit on one kind of list. */
struct DefaultListTag
{
};

/** The two pointers a node embeds per list it can be linked into. */
template <typename T, typename Tag = DefaultListTag>
struct IntrusiveLink
{
    T *prev = nullptr;
    T *next = nullptr;
};

/**
 * Doubly-linked list over nodes embedding IntrusiveLink<T, Tag>.
 *
 * The list itself is two pointers; copying is disabled because two
 * lists sharing the same nodes would corrupt each other.
 */
template <typename T, typename Tag = DefaultListTag>
class IntrusiveList
{
  public:
    using Link = IntrusiveLink<T, Tag>;

    IntrusiveList() = default;
    IntrusiveList(const IntrusiveList &) = delete;
    IntrusiveList &operator=(const IntrusiveList &) = delete;

    T *head() const { return head_; }
    T *tail() const { return tail_; }
    bool empty() const { return head_ == nullptr; }

    /** Successor / predecessor of a linked node (nullptr at the end). */
    static T *next(const T *n) { return linkOf(n).next; }
    static T *prev(const T *n) { return linkOf(n).prev; }

    /** Append @p n; O(1). */
    void
    pushBack(T *n)
    {
        insertAfter(tail_, n);
    }

    /** Prepend @p n; O(1). */
    void
    pushFront(T *n)
    {
        insertAfter(nullptr, n);
    }

    /**
     * Link @p n immediately after @p pos (which must be on this list),
     * or at the front when @p pos is nullptr. This is the primitive
     * the sorted-insertion loops (calendar buckets, ticker priorities)
     * are built on: scan to a position, splice once.
     */
    void
    insertAfter(T *pos, T *n)
    {
        Link &ln = linkOf(n);
        ln.prev = pos;
        if (pos != nullptr) {
            Link &lp = linkOf(pos);
            ln.next = lp.next;
            if (lp.next != nullptr)
                linkOf(lp.next).prev = n;
            else
                tail_ = n;
            lp.next = n;
        } else {
            ln.next = head_;
            if (head_ != nullptr)
                linkOf(head_).prev = n;
            else
                tail_ = n;
            head_ = n;
        }
    }

    /** Unlink @p n (must be on this list); O(1). The node's link
     *  pointers are reset so stale traversals cannot wander. */
    void
    unlink(T *n)
    {
        Link &ln = linkOf(n);
        if (ln.prev != nullptr)
            linkOf(ln.prev).next = ln.next;
        else
            head_ = ln.next;
        if (ln.next != nullptr)
            linkOf(ln.next).prev = ln.prev;
        else
            tail_ = ln.prev;
        ln.prev = nullptr;
        ln.next = nullptr;
    }

    /** Unlink and return the head; nullptr when empty. */
    T *
    popFront()
    {
        T *n = head_;
        if (n != nullptr)
            unlink(n);
        return n;
    }

    /** Move every node of @p other onto the back of this list; O(1).
     *  @p other is left empty. */
    void
    splice(IntrusiveList &other)
    {
        if (other.head_ == nullptr)
            return;
        if (tail_ != nullptr) {
            linkOf(tail_).next = other.head_;
            linkOf(other.head_).prev = tail_;
        } else {
            head_ = other.head_;
        }
        tail_ = other.tail_;
        other.head_ = nullptr;
        other.tail_ = nullptr;
    }

    /** Drop every node without touching their links' owners. Only
     *  valid when the caller re-links or abandons the nodes itself. */
    void
    reset()
    {
        head_ = nullptr;
        tail_ = nullptr;
    }

    /** Node count by traversal; O(n), for tests and assertions. */
    std::size_t
    sizeSlow() const
    {
        std::size_t n = 0;
        for (T *it = head_; it != nullptr; it = next(it))
            ++n;
        return n;
    }

  private:
    static Link &
    linkOf(const T *n)
    {
        return const_cast<T *>(n)->intrusiveLink(Tag{});
    }

    T *head_ = nullptr;
    T *tail_ = nullptr;
};

} // namespace gals

#endif // SIM_INTRUSIVE_LIST_HH
