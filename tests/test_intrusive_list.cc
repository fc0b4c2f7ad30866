/**
 * @file
 * Tests for the shared intrusive list: link/unlink at every position,
 * insertAfter, splice, multi-tag membership, and pool-style reuse
 * through a free list.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/intrusive_list.hh"

using namespace gals;

namespace
{

struct TagA
{
};
struct TagB
{
};

struct Node
{
    int id;
    IntrusiveLink<Node, TagA> linkA;
    IntrusiveLink<Node, TagB> linkB;

    explicit Node(int i) : id(i) {}

    IntrusiveLink<Node, TagA> &intrusiveLink(TagA) { return linkA; }
    IntrusiveLink<Node, TagB> &intrusiveLink(TagB) { return linkB; }
};

using ListA = IntrusiveList<Node, TagA>;
using ListB = IntrusiveList<Node, TagB>;

std::vector<int>
ids(const ListA &l)
{
    std::vector<int> out;
    for (Node *n = l.head(); n != nullptr; n = ListA::next(n))
        out.push_back(n->id);
    return out;
}

} // namespace

TEST(IntrusiveList, StartsEmpty)
{
    ListA l;
    EXPECT_TRUE(l.empty());
    EXPECT_EQ(l.head(), nullptr);
    EXPECT_EQ(l.tail(), nullptr);
    EXPECT_EQ(l.sizeSlow(), 0u);
    EXPECT_EQ(l.popFront(), nullptr);
}

TEST(IntrusiveList, PushBackKeepsOrder)
{
    Node a(1), b(2), c(3);
    ListA l;
    l.pushBack(&a);
    l.pushBack(&b);
    l.pushBack(&c);
    EXPECT_EQ(ids(l), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(l.head(), &a);
    EXPECT_EQ(l.tail(), &c);
    EXPECT_EQ(l.sizeSlow(), 3u);
    EXPECT_EQ(ListA::prev(&b), &a);
    EXPECT_EQ(ListA::next(&b), &c);
}

TEST(IntrusiveList, PushFrontPrepends)
{
    Node a(1), b(2);
    ListA l;
    l.pushFront(&a);
    l.pushFront(&b);
    EXPECT_EQ(ids(l), (std::vector<int>{2, 1}));
}

TEST(IntrusiveList, InsertAfterEveryPosition)
{
    Node a(1), b(2), c(3), d(4);
    ListA l;
    l.pushBack(&a);
    l.pushBack(&c);
    l.insertAfter(&a, &b);       // middle
    l.insertAfter(&c, &d);       // after tail
    EXPECT_EQ(ids(l), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(l.tail(), &d);

    Node e(0);
    l.insertAfter(nullptr, &e);  // nullptr position == front
    EXPECT_EQ(ids(l), (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(l.head(), &e);
}

TEST(IntrusiveList, UnlinkHeadMiddleTail)
{
    Node a(1), b(2), c(3), d(4);
    ListA l;
    for (Node *n : {&a, &b, &c, &d})
        l.pushBack(n);

    l.unlink(&b); // middle
    EXPECT_EQ(ids(l), (std::vector<int>{1, 3, 4}));
    // Unlinked node's pointers are reset.
    EXPECT_EQ(ListA::next(&b), nullptr);
    EXPECT_EQ(ListA::prev(&b), nullptr);

    l.unlink(&a); // head
    EXPECT_EQ(ids(l), (std::vector<int>{3, 4}));
    EXPECT_EQ(l.head(), &c);

    l.unlink(&d); // tail
    EXPECT_EQ(ids(l), (std::vector<int>{3}));
    EXPECT_EQ(l.tail(), &c);

    l.unlink(&c); // sole node
    EXPECT_TRUE(l.empty());
    EXPECT_EQ(l.tail(), nullptr);
}

TEST(IntrusiveList, PopFrontDrains)
{
    Node a(1), b(2);
    ListA l;
    l.pushBack(&a);
    l.pushBack(&b);
    EXPECT_EQ(l.popFront(), &a);
    EXPECT_EQ(l.popFront(), &b);
    EXPECT_EQ(l.popFront(), nullptr);
    EXPECT_TRUE(l.empty());
}

TEST(IntrusiveList, SpliceAppendsAndEmptiesSource)
{
    Node a(1), b(2), c(3), d(4);
    ListA l1, l2;
    l1.pushBack(&a);
    l1.pushBack(&b);
    l2.pushBack(&c);
    l2.pushBack(&d);

    l1.splice(l2);
    EXPECT_EQ(ids(l1), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(l2.empty());

    // Splicing an empty list is a no-op.
    l1.splice(l2);
    EXPECT_EQ(l1.sizeSlow(), 4u);

    // Splicing into an empty list transfers wholesale.
    ListA l3;
    l3.splice(l1);
    EXPECT_EQ(ids(l3), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(l1.empty());
}

TEST(IntrusiveList, TwoTagsIndependentMembership)
{
    // One node on two lists at once through distinct tags — the
    // pattern that lets an Event sit in a calendar bucket while other
    // links remain free for future use.
    Node a(1), b(2), c(3);
    ListA la;
    ListB lb;
    la.pushBack(&a);
    la.pushBack(&b);
    la.pushBack(&c);
    lb.pushBack(&c);
    lb.pushBack(&a);

    EXPECT_EQ(ids(la), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(lb.head(), &c);
    EXPECT_EQ(ListB::next(&c), &a);

    // Unlinking from one list leaves the other intact.
    la.unlink(&a);
    EXPECT_EQ(ids(la), (std::vector<int>{2, 3}));
    EXPECT_EQ(ListB::next(&c), &a);
    EXPECT_EQ(lb.sizeSlow(), 2u);
}

TEST(IntrusiveList, PoolReuseCycle)
{
    // Free-list pattern: nodes shuttle between a free list and an
    // active list many times without losing integrity.
    Node n0(0), n1(1), n2(2);
    ListA free, active;
    for (Node *n : {&n0, &n1, &n2})
        free.pushFront(n);

    for (int round = 0; round < 100; ++round) {
        while (Node *n = free.popFront())
            active.pushBack(n);
        EXPECT_EQ(active.sizeSlow(), 3u);
        EXPECT_TRUE(free.empty());
        while (Node *n = active.popFront())
            free.pushFront(n);
        EXPECT_EQ(free.sizeSlow(), 3u);
        EXPECT_TRUE(active.empty());
    }
}

TEST(IntrusiveList, ResetDropsWithoutTouchingNodes)
{
    Node a(1), b(2);
    ListA l;
    l.pushBack(&a);
    l.pushBack(&b);
    l.reset();
    EXPECT_TRUE(l.empty());
    // Node links are untouched by reset(); the caller owns re-linking.
    EXPECT_EQ(ListA::next(&a), &b);
}
