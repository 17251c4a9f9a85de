// Seeded violations for the `serializer-coverage` rule: a class
// defining a checkpoint() visitor whose member list has drifted —
// one member is neither serialized nor declared transient.

#ifndef FIXTURE_SERIALIZER_COVERAGE_BAD_HH
#define FIXTURE_SERIALIZER_COVERAGE_BAD_HH

namespace fixture
{

namespace ckpt
{
class Ckpt;
}

class DriftedComponent
{
  public:
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(cursor_);
        ck.transient("scratch_");
    }

  private:
    unsigned long long cursor_ = 0;
    void *scratch_ = nullptr;
    // finding: added after the visitor was written; the restore
    // witness would not see it diverge.
    unsigned long long addedLater_ = 0;
};

// Out-of-line visitors must see the header's member list too.
class SplitComponent
{
  public:
    void checkpoint(ckpt::Ckpt &ck) const;

  private:
    unsigned long long saved_ = 0;
    // finding: missing from the .cc definition of checkpoint().
    unsigned long long missed_ = 0;
};

} // namespace fixture

#endif
