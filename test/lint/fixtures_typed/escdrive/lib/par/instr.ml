include Tally
