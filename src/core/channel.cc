#include "core/channel.hh"

namespace gals
{

ChannelBase::ChannelBase(std::string name, ChannelMode mode,
                         ClockDomain &producer, ClockDomain &consumer,
                         std::size_t capacity, unsigned syncEdges,
                         bool streaming)
    : name_(std::move(name)), mode_(mode), producer_(producer),
      consumer_(consumer), eq_(producer.eventQueue()),
      capacity_(capacity), syncEdges_(syncEdges), streaming_(streaming)
{
    gals_assert(capacity_ > 0, "channel '", name_, "': zero capacity");
    gals_assert(syncEdges_ > 0, "channel '", name_, "': zero sync edges");
    gals_assert(&consumer.eventQueue() == &eq_, "channel '", name_,
                "': producer and consumer run on different event queues");
}

} // namespace gals
