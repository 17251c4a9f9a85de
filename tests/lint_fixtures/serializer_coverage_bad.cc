// Out-of-line checkpoint() definition for SplitComponent; together
// with serializer_coverage_bad.hh this seeds the stem-merged case
// (member declared in the header, visitor defined here).

#include "serializer_coverage_bad.hh"

namespace fixture
{

void
SplitComponent::checkpoint(ckpt::Ckpt &ck) const
{
    ck.io(saved_);
}

} // namespace fixture
