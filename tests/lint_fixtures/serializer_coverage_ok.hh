// Conforming twin for the `serializer-coverage` rule: every member
// is serialized, declared transient, or waived with LINT-OK.

#ifndef FIXTURE_SERIALIZER_COVERAGE_OK_HH
#define FIXTURE_SERIALIZER_COVERAGE_OK_HH

namespace fixture
{

namespace ckpt
{
class Ckpt;
}

class CoveredComponent
{
  public:
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(cursor_);
        ck.io(history_);
        // Host pointers and derived caches are not part of the
        // witness — but the decision must be visible.
        ck.transient("scratch_ cachedSum_");
    }

  private:
    unsigned long long cursor_ = 0;
    unsigned long long history_ = 0;
    void *scratch_ = nullptr;
    unsigned long long cachedSum_ = 0;
    // Static members carry no per-object state.
    static constexpr unsigned kWays = 4;
    // A member covered through a helper the rule cannot see may be
    // waived per line, with a reason.
    // LINT-OK(serializer-coverage): serialized via a packed helper
    unsigned long long viaHelper_ = 0;
};

} // namespace fixture

#endif
